package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"crowdassess/internal/eval"
	figreport "crowdassess/internal/report"
)

// sweepFigures are the paper's evaluation runs paper_sweep repeats: the A2
// binary figures 3 and 4 and the A3 k-ary figures 5b and 5c.
var sweepFigures = []string{"fig3", "fig4", "fig5b", "fig5c"}

// sweepReplicates is the replicate count per figure. At the paper's 500,
// or even 40, one sweep lasts as long as a whole run (40 takes 8 to 16 s
// on a shared 2-vCPU machine); at 5 a run repeats the sweep several times
// and reports a median.
const sweepReplicates = 5

// goldenJSON maps replicate count → seed → figure → SHA-256 of the
// figure's CSV, for seeds 1–3 at full scale and at the smoke test's scale.
//
//go:embed testdata/paper_sweep_golden.json
var goldenJSON []byte

type goldens map[string]map[string]map[string]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("paper_sweep goldens: %w", err)
	}
	return g, nil
}

// sweepFigure runs one figure and returns its CSV's SHA-256 and how long
// the run took (the hashing is not timed).
func sweepFigure(fig string, p eval.Params) (string, time.Duration, error) {
	start := time.Now()
	res, err := eval.Run(fig, p)
	d := time.Since(start)
	if err != nil {
		return "", 0, fmt.Errorf("%s: %w", fig, err)
	}
	h := sha256.New()
	if err := figreport.Write(h, "csv", res); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), d, nil
}

// runPaperSweep is the batch-estimator workload: serial eval.Run of every
// sweep figure, repeated until the deadline. Only core, mat and stat run;
// the serving layers are bypassed, so a change to them leaves this
// workload flat. Each sweep must reproduce the first byte for byte, and
// for seeds with goldens, the goldens.
func runPaperSweep(rc *runCtx) error {
	reps := rc.scaled(sweepReplicates, 1)
	params := eval.Params{Replicates: reps, Seed: rc.cfg.seed}
	// Set-up is a warm-up pass, one replicate of every figure: it fills the
	// estimators' pooled workspaces before timing starts.
	if _, err := boot(rc, func() (struct{}, error) {
		for _, fig := range sweepFigures {
			if _, err := eval.Run(fig, eval.Params{Replicates: 1, Seed: rc.cfg.seed}); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, func(struct{}) error { return nil }); err != nil {
		return err
	}

	p := rc.startPhase()
	var sweeps []float64
	perFig := map[string][]float64{}
	var first map[string]string
	for len(sweeps) == 0 || time.Now().Before(p.deadline) {
		id, start := rc.tr.newID(), time.Now()
		hashes := map[string]string{}
		var total time.Duration
		for _, fig := range sweepFigures {
			figStart := time.Now()
			sum, d, err := sweepFigure(fig, params)
			if err != nil {
				return err
			}
			rc.tr.record("eval."+fig, rc.tr.newID(), id, id, figStart, figStart.Add(d))
			hashes[fig] = sum
			total += d
			perFig[fig] = append(perFig[fig], d.Seconds())
		}
		rc.tr.record("client.sweep", id, 0, id, start, time.Now())
		sweeps = append(sweeps, ms(total))
		if first == nil {
			first = hashes
			continue
		}
		for _, fig := range sweepFigures {
			if hashes[fig] != first[fig] {
				rc.rep.fail("%s: sweep %d produced different output than sweep 1", fig, len(sweeps))
			}
		}
	}
	// One client runs the sweeps back to back, so its rate is the inverse
	// of their mean duration; counting whole sweeps inside the window
	// would quantize it.
	busy := 0.0
	for _, s := range sweeps {
		busy += s / 1000
	}
	rc.endPhase(p, sweeps, float64(len(sweeps))/busy)
	rc.countOps(len(sweeps), 0)
	rc.rep.set("sweep_s", "s", median(sweeps)/1000, len(sweeps))
	if rc.tr != nil {
		for _, fig := range sweepFigures {
			rc.rep.set("eval."+fig+"_s", "s", median(perFig[fig]), len(perFig[fig]))
		}
	}

	g, err := loadGoldens()
	if err != nil {
		return err
	}
	want, ok := g[strconv.Itoa(reps)][strconv.FormatInt(rc.cfg.seed, 10)]
	if !ok {
		return nil
	}
	for _, fig := range sweepFigures {
		if first[fig] != want[fig] {
			rc.rep.fail("%s: CSV SHA-256 %s, golden %s", fig, first[fig], want[fig])
		}
	}
	rc.rep.set("goldens_checked", "count", float64(len(sweepFigures)), 0)
	return nil
}
