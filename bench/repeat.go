package main

import "fmt"

// runRepeat runs each chosen workload n times end to end, with seeds
// seed..seed+n-1, and prints per end-to-end metric the median, the
// quartiles and the interquartile spread as a share of the median — the
// statistic the benchmark driver gates on. It fails if any job failed or
// any spread exceeds its metric's bound.
func runRepeat(e *env, chosen []*workloadDef, seed uint64, seconds float64, n int) int {
	if n < 2 {
		fatal(2, "-repeat needs at least 2 runs")
	}
	code := 0
	for _, w := range chosen {
		printStamp(e, w, seed, seconds, false)
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, _, err := runEndToEnd(e, w, seed+uint64(i), seconds)
			if err != nil {
				e.close()
				fatal(3, "%s: %v", w.name, err)
			}
			if !res.Correct {
				code = 1
			}
			fmt.Printf("# run %d seed %d:", i+1, seed+uint64(i))
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				values[d.Name] = append(values[d.Name], v)
				fmt.Printf(" %s=%.4g", d.Name, v)
			}
			fmt.Println()
		}
		fmt.Printf("%-16s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := relSpread(values[d.Name])
			verdict := ""
			// setup_s is gated on its median only, never on its spread.
			if spread > d.Bound && d.Name != "setup_s" {
				verdict, code = "  EXCEEDS BOUND", 1
			}
			fmt.Printf("%-16s %-16s %12.4f %12.4f %12.4f %7.1f%% %7.0f%%%s\n",
				w.name, d.Name, q1, q2, q3, spread*100, d.Bound*100, verdict)
		}
	}
	return code
}
