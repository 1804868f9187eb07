// Command dfbench regenerates the paper's evaluation tables and figures on
// the simulated substrate.
//
// Usage:
//
//	dfbench [-scale small|paper] fig2|fig3|fig13|fig14|fig15|fig16a|fig16b|fig19|ablation|selfmon|profile|ingest|rollup|alerting|critpath|storage|all
//
// Output for each experiment is a plain-text table plus notes comparing
// against the paper's reported numbers. EXPERIMENTS.md records a captured
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"deepflow/internal/experiments"
)

func main() {
	scale := flag.String("scale", "small", "experiment scale: small (seconds) or paper (minutes)")
	md := flag.Bool("md", false, "emit markdown instead of plain text")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: dfbench [-scale small|paper] [-md] <fig2|fig3|fig13|fig14|fig15|fig16a|fig16b|fig19|ablation|selfmon|profile|ingest|rollup|alerting|critpath|storage|all>")
		os.Exit(2)
	}

	big := *scale == "paper"
	pick := func(small, paper int) int {
		if big {
			return paper
		}
		return small
	}

	runners := map[string]func() (*experiments.Table, error){
		"fig2": experiments.Fig2,
		"fig3": func() (*experiments.Table, error) { return experiments.Fig3(), nil },
		"fig13": func() (*experiments.Table, error) {
			return experiments.Fig13(pick(20000, 100000))
		},
		"fig14": func() (*experiments.Table, error) {
			return experiments.Fig14(pick(100000, 1000000), pick(2000, 10000))
		},
		"fig15": func() (*experiments.Table, error) {
			return experiments.Fig15(pick(2000, 20000), 12, pick(200, 1000))
		},
		"fig16a": func() (*experiments.Table, error) {
			rates := []float64{1000, 2000, 4000, 6000, 8000}
			if !big {
				rates = []float64{2000, 6000}
			}
			return experiments.Fig16("springboot", rates, time.Duration(pick(1, 5))*time.Second)
		},
		"fig16b": func() (*experiments.Table, error) {
			rates := []float64{500, 1000, 2000, 3000, 4000}
			if !big {
				rates = []float64{1000, 3000}
			}
			return experiments.Fig16("bookinfo", rates, time.Duration(pick(1, 5))*time.Second)
		},
		"fig19": func() (*experiments.Table, error) {
			rates := []float64{10000, 30000, 50000, 60000, 70000}
			if !big {
				rates = []float64{20000, 60000}
			}
			return experiments.Fig19(rates, time.Duration(pick(1, 5))*time.Second)
		},
	}
	runners["ablation"] = experiments.Ablation
	runners["selfmon"] = func() (*experiments.Table, error) {
		return experiments.Selfmon(float64(pick(500, 2000)), time.Duration(pick(2, 10))*time.Second)
	}
	runners["profile"] = func() (*experiments.Table, error) {
		return experiments.Profile(float64(pick(30, 100)), time.Duration(pick(2, 8))*time.Second)
	}
	runners["ingest"] = func() (*experiments.Table, error) {
		return experiments.Ingest(pick(60000, 400000), pick(2000, 10000))
	}
	runners["alerting"] = experiments.Alerting
	runners["critpath"] = experiments.Critpath
	runners["storage"] = func() (*experiments.Table, error) {
		dir, err := os.MkdirTemp("", "dfbench-storage-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		return experiments.Storage(pick(50000, 500000), pick(2000, 10000), dir)
	}
	runners["rollup"] = func() (*experiments.Table, error) {
		// The ≥5× acceptance point is the 10⁶-span corpus, so both scales
		// sweep up to it; small just skips the intermediate sizes.
		sizes := []int{20000, 1000000}
		if big {
			sizes = []int{20000, 100000, 400000, 1000000}
		}
		return experiments.Rollup(sizes, pick(2000, 10000))
	}
	order := []string{"fig2", "fig3", "fig13", "fig14", "fig15", "fig16a", "fig16b", "fig19", "ablation", "selfmon", "profile", "ingest", "rollup", "alerting", "critpath", "storage"}

	targets := flag.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = order
	}
	for _, name := range targets {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dfbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		table, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *md {
			fmt.Print(table.Markdown())
		} else {
			fmt.Print(table.Format())
		}
		if table.JSON != nil {
			raw, err := json.MarshalIndent(table.JSON, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "dfbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			file := fmt.Sprintf("BENCH_%s.json", table.ID)
			if err := os.WriteFile(file, append(raw, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dfbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", file)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
