// Command bench is DDoSim's benchmark: fixed kill-chain workloads run
// through the public ddosim facade, each repetition in a fresh child
// process, reported as medians with quartiles. See README.md.
//
//	bash cmd/bench/run.sh --workload flood-uncongested --seed 1 --seconds 25 --trace 0
//	bash cmd/bench/run.sh --workload all --seconds 150 --trace 1 --out set.json
//	bash cmd/bench/run.sh --compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "all", "workload name, or all to rotate through every workload")
		seed    = flag.Int64("seed", 1, "Config.Seed of every rep")
		seconds = flag.Int("seconds", 25, "measure for about this long after the warm-up round")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds traced reps and reports per-layer metrics")
		out     = flag.String("out", "", "also write the full report as JSON to this file")
		compare = flag.Bool("compare", false, "compare two report files: bench --compare before.json after.json")
		child   = flag.Bool("child", false, "run one rep in this process and print it as JSON (used by the parent)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("--compare takes two report files")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		return err
	}
	if *child {
		if len(ws) != 1 {
			return fmt.Errorf("--child runs exactly one workload")
		}
		res, err := runRep(ws[0], *seed, *trace == 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := bench(exe, ws, *seed, *seconds, *trace == 1)
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return err
		}
	}
	if len(ws) == 1 {
		line, err := rep.Workloads[0].result(*trace == 1)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	if w, ok := findWorkload(name); ok {
		return []workload{w}, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}
