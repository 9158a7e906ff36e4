package sfkey

import (
	"runtime"
	"sync"
)

// BatchVerifier checks many Ed25519 signatures as one unit: the bulk
// ingestion paths (WAL replay, gossip verify-before-index, CRL
// install, proof-chain verification) collect their signature checks
// here instead of verifying one by one. Every item is verified exactly
// once, so a batch of n costs n verifications however many of its
// signatures are bad.
//
// The checks are split across a worker pool of GOMAXPROCS goroutines
// (inline on a single-CPU host), which is where multi-core hosts get
// their bulk-verification speedup. Every underlying signature check
// goes through PublicKey.Verify, so the process-wide sig-verify
// counter stays honest: batched verifications are counted exactly
// like individual ones.
//
// The zero value is ready to use; it is not safe for concurrent use.
type BatchVerifier struct {
	items []batchItem
}

type batchItem struct {
	pub PublicKey
	msg []byte
	sig []byte
}

// batchParallelMin is the smallest batch worth fanning out: below it,
// goroutine handoff costs more than the signatures.
const batchParallelMin = 8

// Add queues one (key, message, signature) triple. The slices are
// borrowed until Verify returns, not copied.
func (b *BatchVerifier) Add(pub PublicKey, msg, sig []byte) {
	b.items = append(b.items, batchItem{pub: pub, msg: msg, sig: sig})
}

// Len returns the number of queued items.
func (b *BatchVerifier) Len() int { return len(b.items) }

// Reset empties the verifier for reuse, keeping its backing storage.
func (b *BatchVerifier) Reset() { b.items = b.items[:0] }

// Verify checks every queued item once and returns the indices (in Add
// order, ascending) of the invalid ones; nil means the whole batch is
// valid.
func (b *BatchVerifier) Verify() (bad []int) {
	n := len(b.items)
	w := runtime.GOMAXPROCS(0)
	if w == 1 || n < batchParallelMin {
		for i := range b.items {
			if !b.items[i].verify() {
				bad = append(bad, i)
			}
		}
		return bad
	}
	// Each worker checks one contiguous chunk and marks its failures.
	failed := make([]bool, n)
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				failed[i] = !b.items[i].verify()
			}
		}(lo, hi)
	}
	wg.Wait()
	for i, f := range failed {
		if f {
			bad = append(bad, i)
		}
	}
	return bad
}

func (it *batchItem) verify() bool { return it.pub.Verify(it.msg, it.sig) }
