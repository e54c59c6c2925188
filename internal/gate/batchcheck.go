package gate

import (
	"fmt"
	"slices"
	"sync"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
)

// indexBits is how many low bits of a packedKey hold the batch index.
const indexBits = 14

// Every batch index must fit in indexBits: the array length below is
// negative, and the package fails to build, if MaxBatch outgrows them.
var _ [1<<indexBits - MaxBatch]struct{}

// packedKey is one response's repeat-check key in a single word: the pair
// number task·workers+worker above the response's batch index. Sorting the
// words orders the keys by task, then worker, then index.
type packedKey uint64

func (k packedKey) pair() uint64 { return uint64(k >> indexBits) }
func (k packedKey) index() int   { return int(k & (1<<indexBits - 1)) }

// batchKeys recycles the key slices of the repeat check.
var batchKeys = sync.Pool{New: func() any { return new([]packedKey) }}

// maxTask returns the largest task id a batch for a crowd of workers may
// carry: core.MaxTask, the largest a streaming evaluator records, or less
// in a crowd of over 2¹⁹ workers, so that every pair number stays below
// 2^(64−indexBits) and packs into a packedKey.
func maxTask(workers int) int {
	return min(core.MaxTask, (1<<(64-indexBits))/workers-1)
}

// validateBatch returns the message of the 400 a batch earns, or "" when
// it is valid: every worker in the crowd, every task in 0…maxTask, every
// answer yes or no, and no (worker, task) pair twice — a worker answers a
// task once, so a repeat would fail mid-batch. The message names the
// lowest index at fault, the one a scan in batch order stops at.
func validateBatch(rs []ResponseRec, workers int) string {
	last := maxTask(workers)
	bad := len(rs)
	for i, rec := range rs {
		if rec.Worker < 0 || rec.Worker >= workers || rec.Task < 0 || rec.Task > last ||
			(rec.Answer != int(crowd.Yes) && rec.Answer != int(crowd.No)) {
			bad = i
			break
		}
	}
	// Repeats are looked for below the first range error only, so both
	// indices of a repeat hold valid responses.
	keys := batchKeys.Get().(*[]packedKey)
	i, j := firstRepeat(keys, rs[:bad], workers)
	batchKeys.Put(keys)
	if i < bad {
		return fmt.Sprintf("responses[%d]: worker %d already answers task %d in responses[%d]", i, rs[i].Worker, rs[i].Task, j)
	}
	if bad == len(rs) {
		return ""
	}
	switch rec := rs[bad]; {
	case rec.Worker < 0 || rec.Worker >= workers:
		return fmt.Sprintf("responses[%d]: worker %d outside crowd of %d", bad, rec.Worker, workers)
	case rec.Task < 0:
		return fmt.Sprintf("responses[%d]: negative task %d", bad, rec.Task)
	case rec.Task > last:
		return fmt.Sprintf("responses[%d]: task %d past the largest task id %d", bad, rec.Task, last)
	default:
		return fmt.Sprintf("responses[%d]: answer %d is not 1 (yes) or 2 (no)", bad, rec.Answer)
	}
}

// firstRepeat returns the lowest index i of rs whose (worker, task) pair
// an earlier index j carries, or i = len(rs) when no pair repeats. Every
// worker must lie in [0, workers) and every task in 0…maxTask(workers).
// The keys are built in *scratch, which keeps their storage.
//
// It sorts one key per response, so each pair's indices sit together in
// ascending order: after the first index of a run, every index repeats
// that first one.
func firstRepeat(scratch *[]packedKey, rs []ResponseRec, workers int) (i, j int) {
	keys := (*scratch)[:0]
	for at, rec := range rs {
		keys = append(keys, packedKey(uint64(rec.Task*workers+rec.Worker)<<indexBits|uint64(at)))
	}
	slices.Sort(keys)
	*scratch = keys
	i, run := len(rs), 0
	for k := 1; k < len(keys); k++ {
		if keys[k].pair() != keys[run].pair() {
			run = k
		} else if at := keys[k].index(); at < i {
			i, j = at, keys[run].index()
		}
	}
	return i, j
}
