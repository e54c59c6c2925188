// Command crowdeval evaluates the workers of a response dataset: it reads a
// JSON dataset (see the crowdassess package for the format), estimates each
// worker's error rate with a confidence interval, and prints a report.
//
// Usage:
//
//	crowdeval -in responses.json [-confidence 0.9] [-prune] [-aggregate]
//	cat responses.json | crowdeval
//
// With -prune, workers failing the majority-vote spammer screen are removed
// before estimation (recommended for open crowds). With -aggregate, the
// estimated error rates are then used to infer each task's answer by
// weighted voting, printed after the worker report.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"crowdassess"
)

func main() {
	var (
		in         = flag.String("in", "", "input dataset file (default stdin)")
		format     = flag.String("in-format", "json", "input format: json, or csv (worker,task,response[,truth] rows)")
		confidence = flag.Float64("confidence", 0.9, "confidence level for intervals")
		prune      = flag.Bool("prune", false, "remove majority-vote spammers before estimating")
		aggregate  = flag.Bool("aggregate", false, "also infer task answers by weighted voting")
		threshold  = flag.Float64("prune-threshold", 0, "spammer disagreement cutoff (0 = paper default 0.4)")
	)
	flag.Parse()

	reader := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		reader = f
	}
	var ds *crowdassess.Dataset
	var err error
	switch *format {
	case "json":
		ds, err = crowdassess.ReadDataset(reader)
	case "csv":
		ds, _, _, err = crowdassess.ReadDatasetCSV(reader)
	default:
		fatal(fmt.Errorf("unknown -in-format %q (json or csv)", *format))
	}
	if err != nil {
		fatal(fmt.Errorf("parsing dataset: %w", err))
	}
	fmt.Printf("dataset: %d workers × %d tasks, arity %d, density %.2f\n",
		ds.Workers(), ds.Tasks(), ds.Arity(), ds.Density())
	if ds.Arity() != 2 {
		fatal(fmt.Errorf("crowdeval evaluates binary datasets; got arity %d "+
			"(use the library's EvaluateWorkersKAry for k-ary data)", ds.Arity()))
	}

	// Map from evaluated index back to the input's worker index.
	orig := make([]int, ds.Workers())
	for i := range orig {
		orig[i] = i
	}
	if *prune {
		pruned, keep, err := crowdassess.PruneSpammers(ds, *threshold)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pruned %d suspected spammers: ", ds.Workers()-pruned.Workers())
		var gone []int
		kept := map[int]bool{}
		for _, w := range keep {
			kept[w] = true
		}
		for w := 0; w < ds.Workers(); w++ {
			if !kept[w] {
				gone = append(gone, w)
			}
		}
		fmt.Println(gone)
		ds, orig = pruned, keep
	}

	ests, err := crowdassess.EvaluateWorkers(ds, crowdassess.Options{Confidence: *confidence})
	if err != nil {
		fatal(err)
	}
	// Most reliable first; unevaluable workers last.
	sort.SliceStable(ests, func(a, b int) bool {
		switch {
		case ests[a].Err != nil:
			return false
		case ests[b].Err != nil:
			return true
		}
		return ests[a].Interval.Mean < ests[b].Interval.Mean
	})
	fmt.Printf("\nworker  error-rate  %.0f%% interval     triples\n", *confidence*100)
	for _, e := range ests {
		if e.Err != nil {
			fmt.Printf("  w%-4d (no estimate: %v)\n", orig[e.Worker], e.Err)
			continue
		}
		fmt.Printf("  w%-4d %.3f      [%.3f, %.3f]   %d\n",
			orig[e.Worker], e.Interval.Mean, e.Interval.Lo, e.Interval.Hi, e.Triples)
	}

	if *aggregate {
		rates := make([]float64, ds.Workers())
		for i := range rates {
			rates[i] = 0.49 // default for unevaluable workers: ≈ no weight
		}
		for _, e := range ests {
			if e.Err == nil {
				rates[e.Worker] = e.Interval.Mean
			}
		}
		answers, err := crowdassess.WeightedBinaryAnswers(ds, rates)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\ntask answers (weighted vote):")
		for t, a := range answers {
			if a.Response == crowdassess.None {
				fmt.Printf("  t%-4d (no responses)\n", t)
				continue
			}
			label := "Yes"
			if a.Response == crowdassess.No {
				label = "No"
			}
			fmt.Printf("  t%-4d %-3s (posterior %.3f)\n", t, label, a.Confidence)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "crowdeval: %v\n", err)
	os.Exit(1)
}
