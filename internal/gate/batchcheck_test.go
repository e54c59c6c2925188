package gate

import (
	"fmt"
	"testing"

	"crowdassess/internal/core"
)

// TestValidateBatchTaskBounds pins the largest task id a batch may carry:
// core.MaxTask in any crowd a streaming evaluator can hold, and less in a
// crowd so large that the pair number task·workers+worker would not pack.
// At that bound the largest pair number is 2^(64−indexBits)−1, and a repeat
// there must still be told from its neighbour pair.
func TestValidateBatchTaskBounds(t *testing.T) {
	const bigCrowd = 1 << 20
	bigLast := 1<<(64-indexBits-20) - 1
	if got := maxTask(8); got != core.MaxTask {
		t.Errorf("maxTask(8) = %d, want core.MaxTask %d", got, core.MaxTask)
	}
	if got := maxTask(bigCrowd); got != bigLast {
		t.Errorf("maxTask(2²⁰) = %d, want %d", got, bigLast)
	}
	cases := []struct {
		name    string
		workers int
		rs      []ResponseRec
		want    string
	}{
		{"largest task", 8, []ResponseRec{{7, core.MaxTask, 1}, {6, core.MaxTask, 2}}, ""},
		{"largest task repeated", 8, []ResponseRec{{7, core.MaxTask, 1}, {6, core.MaxTask, 2}, {7, core.MaxTask, 2}},
			fmt.Sprintf("responses[2]: worker 7 already answers task %d in responses[0]", core.MaxTask)},
		{"past the largest task", 8, []ResponseRec{{7, core.MaxTask + 1, 1}},
			fmt.Sprintf("responses[0]: task %d past the largest task id %d", core.MaxTask+1, core.MaxTask)},
		{"largest pair", bigCrowd, []ResponseRec{{bigCrowd - 1, bigLast, 1}, {bigCrowd - 2, bigLast, 1}, {0, 0, 1}}, ""},
		{"largest pair repeated", bigCrowd,
			[]ResponseRec{{bigCrowd - 2, bigLast, 1}, {bigCrowd - 1, bigLast, 1}, {0, 0, 1}, {bigCrowd - 1, bigLast, 2}},
			fmt.Sprintf("responses[3]: worker %d already answers task %d in responses[1]", bigCrowd-1, bigLast)},
		{"past the big crowd's largest task", bigCrowd, []ResponseRec{{0, 1, 1}, {0, bigLast + 1, 1}},
			fmt.Sprintf("responses[1]: task %d past the largest task id %d", bigLast+1, bigLast)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := validateBatch(tc.rs, tc.workers); got != tc.want {
				t.Errorf("validateBatch = %q, want %q", got, tc.want)
			}
		})
	}
}
