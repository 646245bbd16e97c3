package main

// The harness self-test: every workload runs briefly, untraced and
// traced, and must emit every metric BENCHMARK.json names, with its
// unit; then every correctness check is tripped by a run that damages
// that check's input on purpose. Run it with `bash phxbench/run.sh
// --selftest` from the repository root (about two minutes).

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func selftestConfig(t *testing.T, workload string) benchConfig {
	t.Helper()
	out := filepath.Join("..", ".bench_build", "selftest")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	// Two seconds: one untraced slice and one traced slice.
	return benchConfig{workload: workload, seed: 7, window: 2 * time.Second, boots: 1, out: out}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := selftestConfig(t, name)
			cfg.trace = traced
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.chk.ok() {
				t.Errorf("%s trace=%v: checks failed: %v %v", name, traced, rep.chk.failed(), rep.chk.first)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			res, err := result(rep, want)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", name, traced, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s emitted as %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestCorruptedResultsTripEveryCheck(t *testing.T) {
	for name, checks := range allChecks {
		for _, check := range checks {
			cfg := selftestConfig(t, name)
			cfg.corrupt = check
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s corrupt=%s: %v", name, check, err)
			}
			if !slices.Contains(rep.chk.failed(), check) {
				t.Errorf("%s: corrupting %s tripped %v, not %s", name, check, rep.chk.failed(), check)
			}
			if res, _ := result(rep, nil); res.Correct {
				t.Errorf("%s: corrupting %s still reports correct", name, check)
			}
		}
	}
}
