// Command repro regenerates every experiment in internal/experiment's
// claim index (E01–E14, in its package comment) and prints the
// paper-style tables.
//
//	repro                # run everything
//	repro -only E03,E04  # run a subset
//	repro -csv dir       # additionally write one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		csvDir    = fs.String("csv", "", "directory to write per-experiment CSV files")
		list      = fs.Bool("list", false, "list experiments and exit")
		ablations = fs.Bool("ablations", false, "also run the design-choice ablations (A01, A02)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs := experiment.Registry()
	if *ablations {
		specs = append(specs, experiment.Ablations()...)
	}
	if *list {
		for _, s := range specs {
			fmt.Printf("%s  %s\n", s.ID, s.Title)
		}
		return nil
	}
	if *only != "" {
		wanted := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		filtered := specs[:0]
		for _, s := range specs {
			if wanted[s.ID] {
				filtered = append(filtered, s)
				delete(wanted, s.ID)
			}
		}
		if len(wanted) > 0 {
			return fmt.Errorf("unknown experiment IDs: %v", keys(wanted))
		}
		specs = filtered
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	for _, s := range specs {
		start := time.Now()
		res, err := s.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		if err := res.Table.Render(os.Stdout); err != nil {
			return fmt.Errorf("%s: render: %w", s.ID, err)
		}
		fmt.Printf("(%s finished in %v)\n\n", s.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(s.ID)+".csv")
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("%s: create csv: %w", s.ID, err)
			}
			if err := res.Table.CSV(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: write csv: %w", s.ID, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("%s: close csv: %w", s.ID, err)
			}
		}
	}
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
