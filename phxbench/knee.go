package main

import (
	"fmt"
	"time"
)

// kneeP99Ms is the latency limit of the knee search: the highest offered
// rate whose p99 stays under it is the knee.
const kneeP99Ms = 10.0

// runKnee sweeps bulletin-read's offered rate and prints, per rate, the
// latency, failures and rpc retries, then the knee and the rate where
// retries run away (more than one retry per hundred ops).
func runKnee(seed int64) error {
	knee, runaway := 0.0, 0.0
	fmt.Printf("%8s %9s %9s %9s %9s %9s %10s\n", "rate", "p50_ms", "p99_ms", "ok_frac", "retries", "late_p99", "cpu_us/op")
	for _, rate := range []float64{500, 1000, 2000, 3000, 4000, 5000, 6000, 8000} {
		cfg := benchConfig{workload: "bulletin-read", seed: seed, window: 5 * time.Second,
			boots: 1, rate: rate}
		rep, err := runBulletin(cfg, false)
		if err != nil {
			fmt.Printf("%8.0f  run failed: %v\n", rate, err)
			if runaway == 0 {
				runaway = rate
			}
			break
		}
		m := rep.metrics
		fmt.Printf("%8.0f %9.3f %9.3f %9.4f %9.0f %9.3f %10.1f\n", rate, m["p50_ms"], m["p99_ms"],
			m["ok_frac"], m["rpc.retries"], rep.lateP99, m["cpu_us_per_op"])
		if m["p99_ms"] < kneeP99Ms && m["ok_frac"] == 1 && runaway == 0 {
			knee = rate
		}
		if runaway == 0 && m["rpc.retries"] > float64(rep.attempted)/100 {
			runaway = rate
		}
	}
	fmt.Printf("knee: %.0f ops/s (p99 < %.0f ms, no failures); retries run away at: %.0f ops/s\n",
		knee, kneeP99Ms, runaway)
	return nil
}
