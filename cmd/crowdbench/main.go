// Command crowdbench regenerates the evaluation figures of "Comprehensive
// and Reliable Crowd Assessment Algorithms" (ICDE 2015).
//
// Usage:
//
//	crowdbench -experiment fig1 [-replicates 500] [-seed 1] [-format table] [-o out.dat]
//	crowdbench -experiment all  [-replicates 50]
//	crowdbench -list
//
// Replicates run on every CPU; each is seeded from -seed and they merge in
// replicate order, so the output is byte-identical at every GOMAXPROCS.
//
// With -experiment all, every figure is regenerated in sequence; output for
// experiment NAME goes to <out-prefix>NAME.<ext> when -o is given a prefix
// ending in a path separator or to stdout otherwise.
//
// The serving-path benchmark is cmd/crowdperf, a module of its own.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"crowdassess/internal/eval"
	"crowdassess/internal/report"
)

// validateCounts rejects a negative -replicates up front, naming the
// flag. Zero keeps its documented "pick the paper's default" meaning.
func validateCounts(replicates int) error {
	if replicates < 0 {
		return fmt.Errorf("-replicates must not be negative (0 means the paper's default), got %d", replicates)
	}
	return nil
}

// validateFormat rejects an unknown -format before any experiment runs,
// so a typo cannot leave a half-written output file behind.
func validateFormat(format string) error {
	if !slices.Contains(report.Formats(), format) {
		return fmt.Errorf("-format must be one of %s, got %q", strings.Join(report.Formats(), ", "), format)
	}
	return nil
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (fig1…fig5c, or \"all\")")
		replicates = flag.Int("replicates", 0, "replicates per configuration (0 = paper's default: 500 for synthetic figures)")
		seed       = flag.Int64("seed", 1, "base random seed")
		format     = flag.String("format", "table", "output format: table, csv, or gnuplot")
		out        = flag.String("o", "", "output file (or directory prefix with -experiment all); default stdout")
		list       = flag.Bool("list", false, "list available experiments and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress messages")
	)
	flag.Parse()

	for _, err := range []error{validateCounts(*replicates), validateFormat(*format)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(2)
		}
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range eval.Experiments() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "crowdbench: -experiment is required (try -list)")
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = eval.Experiments()
	}
	params := eval.Params{Replicates: *replicates, Seed: *seed}
	for _, name := range names {
		start := time.Now()
		res, err := eval.Run(name, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "crowdbench: %s done in %v (%d degenerate samples skipped)\n",
				name, time.Since(start).Round(time.Millisecond), res.Failures)
		}
		w, closeFn, err := openOutput(*out, name, *format, len(names) > 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
		if err := report.Write(w, *format, res); err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
		if err := closeFn(); err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// openOutput resolves the output destination: stdout when no -o is given,
// a single file for one experiment, or per-experiment files under a prefix
// for -experiment all.
func openOutput(out, name, format string, multi bool) (io.Writer, func() error, error) {
	if out == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	path := out
	if multi {
		ext := map[string]string{"table": "txt", "csv": "csv", "gnuplot": "dat"}[format]
		if strings.HasSuffix(out, string(os.PathSeparator)) {
			path = filepath.Join(out, name+"."+ext)
		} else {
			path = out + name + "." + ext
		}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
