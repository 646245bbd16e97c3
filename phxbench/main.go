// Command phxbench is the repository's benchmark: it boots a real
// loopback-UDP Phoenix cluster in this process, drives it with one
// workload, checks every output, and prints one JSON result line.
//
//	phxbench -root <checkout> -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Workloads (BENCHMARK.json records why each scored one exists):
//
//	bulletin-read   4 nodes + client, open-loop Poisson, 80% keyed Get, 20% cluster Query
//	bulletin-write  same cluster, 70% acked PutRes, 30% Get of the key just written
//	pws-jobs        1 partition x 4 nodes hosting PWS, open-loop service and batch submits
//	wire-fanin      4 bare transports, 3 sources streaming heartbeats to node 0
//
// wire-fanin is not scored: at default transport options its lanes to a
// live node fault after about 13 s and drop their queued messages, which
// its ordering check reports (see phxbench/README.md).
//
// With -trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the per-layer ones, from a run whose odd seconds are traced
// (spans at every layer call the benchmark makes) and whose even seconds
// are not, so the tracing overhead is measured within the run. Spans are
// written to <out>/spans-<workload>-<seed>.jsonl at the end.
//
// A run that breaks a correctness check, a failed op included, prints its
// result line with "correct": false and exits 4.
//
// -knee sweeps the offered rate of bulletin-read instead and prints, per
// rate, p50/p99, failures and retries; it is not a scored workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchConfig is one run's settings.
type benchConfig struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	trace    bool
	boots    int     // cluster set-ups per run; setup_s is their median
	rate     float64 // offered ops/s of open-loop workloads (0 = the workload's own)
	corrupt  string  // a check whose input is damaged on purpose (self-test)
	out      string  // directory for span dumps
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	chk               *checker
	lateP50, lateP99  float64 // generator lateness, ms (open-loop workloads)
	lateMax           float64
	p50               float64 // untraced p50, ms, for the validity rule
	openLoop          bool
	// absent lists metric-name prefixes of layers the workload does not
	// exercise; their per-layer metrics read 0.
	absent []string
}

func newReport(chk *checker) *report {
	return &report{metrics: make(map[string]float64), chk: chk}
}

type workloadFunc func(cfg benchConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"bulletin-read":  func(cfg benchConfig) (*report, error) { return runBulletin(cfg, false) },
	"bulletin-write": func(cfg benchConfig) (*report, error) { return runBulletin(cfg, true) },
	"pws-jobs":       runPWS,
	"wire-fanin":     runFanin,
}

// spec mirrors the metric lists of BENCHMARK.json.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the metrics the run reports, by BENCHMARK.json, and
// fails if the workload did not measure one of them.
func result(rep *report, want []metricSpec) (resultOut, error) {
	out := resultOut{Correct: rep.chk.ok(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(want))}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok && !rep.isAbsent(m.Name) {
			return out, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func (rep *report) isAbsent(name string) bool {
	for _, p := range rep.absent {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// validity is the open-loop rule: a run whose typical op was offered
// late on the scale of the latency it measures did not offer the load it
// claims. The rule reads the median lateness: the tail of lateness is
// the host descheduling the whole process, which stalls the system under
// test alike and is part of what p99_ms measures.
func validity(rep *report) error {
	if rep.openLoop && rep.lateP50 >= rep.p50/2 {
		return fmt.Errorf("generator lateness p50 %.3f ms reached half of p50 %.3f ms: run invalid",
			rep.lateP50, rep.p50)
	}
	return nil
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		out      = flag.String("out", ".bench_build", "directory for span dumps")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured window, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		knee     = flag.Bool("knee", false, "sweep bulletin-read offered rates instead of one run")
	)
	flag.Parse()
	if *knee {
		if err := runKnee(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "phxbench:", err)
			os.Exit(1)
		}
		return
	}
	sp, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	run, ok := workloads[*workload]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "phxbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := benchConfig{workload: *workload, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds * float64(time.Second)), boots: 3, out: *out}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	summarize(rep)
	if err := validity(rep); err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(3)
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	res, err := result(rep, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(4)
	}
}

// summarize prints everything measured, and any violations, to stderr.
func summarize(rep *report) {
	var names []string
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %.6g\n", n, rep.metrics[n])
	}
	if rep.openLoop {
		fmt.Fprintf(os.Stderr, "  generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
			rep.lateP50, rep.lateP99, rep.lateMax)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", rep.attempted, rep.failed)
	if !rep.chk.ok() {
		fmt.Fprintf(os.Stderr, "  CORRECTNESS VIOLATIONS in %v:\n", rep.chk.failed())
		for _, v := range rep.chk.first {
			fmt.Fprintln(os.Stderr, "    "+v)
		}
	}
}
