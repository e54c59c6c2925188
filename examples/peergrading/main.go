// Peergrading: k-ary evaluation of biased graders, MOOC-style.
//
// Binary error rates cannot express "this grader inflates everything by one
// notch". The k-ary estimator recovers each grader's full response
// probability matrix — P(assigned grade | deserved grade) — with confidence
// intervals, from peer grades alone.
//
// Run with: go run ./examples/peergrading
package main

import (
	"fmt"
	"log"

	"crowdassess"
)

func main() {
	// Three graders on 1200 assignments graded low/medium/high (arity 3).
	// Grader 0 is accurate; grader 1 inflates (systematically pushes grades
	// up); grader 2 is accurate but sloppy.
	accurate := crowdassess.Confusion{
		{0.85, 0.10, 0.05},
		{0.08, 0.84, 0.08},
		{0.05, 0.10, 0.85},
	}
	inflater := crowdassess.Confusion{
		{0.55, 0.40, 0.05}, // low work often graded medium
		{0.02, 0.58, 0.40}, // medium work often graded high
		{0.02, 0.08, 0.90},
	}
	sloppy := crowdassess.Confusion{
		{0.70, 0.20, 0.10},
		{0.15, 0.70, 0.15},
		{0.10, 0.20, 0.70},
	}
	src := crowdassess.NewSimSource(23)
	ds, _, err := crowdassess.KArySim{
		Tasks:       1200,
		Workers:     3,
		Confusions:  []crowdassess.Confusion{accurate, inflater, sloppy},
		Selectivity: []float64{0.3, 0.45, 0.25}, // most work is medium
	}.Generate(src)
	if err != nil {
		log.Fatal(err)
	}

	est, err := crowdassess.EstimateResponseMatrices(ds, [3]int{0, 1, 2}, 0.90)
	if err != nil {
		log.Fatal(err)
	}

	grades := []string{"low", "med", "high"}
	names := []string{"accurate", "inflater", "sloppy"}
	for w := 0; w < 3; w++ {
		fmt.Printf("grader %d (%s): estimated P(assigned | deserved), 90%% CIs\n", w, names[w])
		for a := 0; a < 3; a++ {
			fmt.Printf("  deserved %-4s:", grades[a])
			for b := 0; b < 3; b++ {
				iv := est.Intervals[w][a][b]
				fmt.Printf("  %s %.2f [%.2f,%.2f]", grades[b], est.Prob[w].At(a, b), iv.Lo, iv.Hi)
			}
			fmt.Println()
		}
	}

	// Detect inflation with statistical confidence: a grader inflates when
	// the interval for P(higher grade | deserved) clears the honest-grader
	// benchmark entirely.
	fmt.Println("\ninflation check: P(assigned=high | deserved=med)")
	for w := 0; w < 3; w++ {
		iv := est.Intervals[w][1][2]
		verdict := "ok"
		if iv.Lo > 0.25 {
			verdict = "INFLATES (lower bound above 0.25)"
		}
		fmt.Printf("  grader %d: [%.2f, %.2f] → %s\n", w, iv.Lo, iv.Hi, verdict)
	}

	fmt.Printf("\nestimated grade distribution: low %.2f, med %.2f, high %.2f\n",
		est.Selectivity[0], est.Selectivity[1], est.Selectivity[2])
}
