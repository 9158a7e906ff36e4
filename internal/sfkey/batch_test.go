package sfkey

import (
	"fmt"
	"runtime"
	"testing"
)

// batchFixture signs n distinct messages under n distinct keys and
// loads them into a verifier.
func batchFixture(t *testing.T, n int) (*BatchVerifier, [][]byte) {
	t.Helper()
	bv := &BatchVerifier{}
	msgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		priv := FromSeed([]byte(fmt.Sprintf("batch-%d", i)))
		msgs[i] = []byte(fmt.Sprintf("message %d", i))
		bv.Add(priv.Public(), msgs[i], priv.Sign(msgs[i]))
	}
	return bv, msgs
}

func TestBatchVerifyAllGood(t *testing.T) {
	bv, _ := batchFixture(t, 17)
	if bad := bv.Verify(); len(bad) != 0 {
		t.Fatalf("clean batch reported bad indices %v", bad)
	}
}

func TestBatchVerifyEmpty(t *testing.T) {
	bv := &BatchVerifier{}
	if bad := bv.Verify(); len(bad) != 0 {
		t.Fatalf("empty batch reported %v", bad)
	}
}

// TestBatchVerifyPinpointsOneBadSig: one corrupt signature in a batch
// must be pinpointed exactly, not take the whole batch down with it.
func TestBatchVerifyPinpointsOneBadSig(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 31, 64} {
		for _, corrupt := range []int{0, n / 2, n - 1} {
			bv, _ := batchFixture(t, n)
			bv.items[corrupt].sig[0] ^= 0xff
			bad := bv.Verify()
			if len(bad) != 1 || bad[0] != corrupt {
				t.Fatalf("n=%d corrupt=%d: got bad=%v, want [%d]", n, corrupt, bad, corrupt)
			}
		}
	}
}

// TestBatchVerifyCountsSigVerifies: batched verification must flow
// through the same counter individual Verify calls do, or the
// warm-vs-cold cache measurements lie; and k bad signatures among n
// items cost exactly n verifications, wherever they sit, on the
// serial and the parallel path alike, so a hostile peer cannot
// amplify the work by placing bad signatures in a batch.
func TestBatchVerifyCountsSigVerifies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 7, 8, 256} {
			for _, corrupt := range [][]int{nil, {0}, {n / 2}, {n - 1}, {0, n / 3, n - 1}} {
				bv, _ := batchFixture(t, n)
				want := map[int]bool{}
				for _, i := range corrupt {
					if !want[i] {
						bv.items[i].sig[0] ^= 0xff
						want[i] = true
					}
				}
				before := SigVerifies()
				bad := bv.Verify()
				if got := SigVerifies() - before; got != int64(n) {
					t.Errorf("procs=%d n=%d bad at %v: %d verifications, want %d", procs, n, corrupt, got, n)
				}
				if len(bad) != len(want) {
					t.Errorf("procs=%d n=%d: got bad=%v, want %v", procs, n, bad, corrupt)
				}
				for _, i := range bad {
					if !want[i] {
						t.Errorf("procs=%d n=%d: index %d reported bad but was not corrupted", procs, n, i)
					}
				}
			}
		}
	}
}

func TestBatchVerifyMultipleBadSigs(t *testing.T) {
	bv, _ := batchFixture(t, 40)
	want := map[int]bool{3: true, 19: true, 20: true, 39: true}
	for i := range want {
		bv.items[i].sig[1] ^= 0x55
	}
	bad := bv.Verify()
	if len(bad) != len(want) {
		t.Fatalf("got %v, want the %d corrupted indices", bad, len(want))
	}
	for _, i := range bad {
		if !want[i] {
			t.Fatalf("index %d reported bad but was not corrupted (got %v)", i, bad)
		}
	}
}

// TestBatchVerifyWrongMessage corrupts a message rather than its
// signature — same detection path, different failure cause.
func TestBatchVerifyWrongMessage(t *testing.T) {
	bv, msgs := batchFixture(t, 9)
	msgs[4][0] ^= 0x01
	bad := bv.Verify()
	if len(bad) != 1 || bad[0] != 4 {
		t.Fatalf("got bad=%v, want [4]", bad)
	}
}

// TestBatchVerifyParallelWorkers forces the chunked parallel path
// even on a single-CPU runner and checks it finds the same culprits.
func TestBatchVerifyParallelWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bv, _ := batchFixture(t, 24)
	bv.items[7].sig[2] ^= 0x80
	bv.items[23].sig[2] ^= 0x80
	bad := bv.Verify()
	if len(bad) != 2 || bad[0] != 7 || bad[1] != 23 {
		t.Fatalf("parallel verify got bad=%v, want [7 23]", bad)
	}
}

func TestBatchVerifierReset(t *testing.T) {
	bv, _ := batchFixture(t, 3)
	if bv.Len() != 3 {
		t.Fatalf("Len = %d, want 3", bv.Len())
	}
	bv.Reset()
	if bv.Len() != 0 {
		t.Fatalf("Len after Reset = %d", bv.Len())
	}
	if bad := bv.Verify(); len(bad) != 0 {
		t.Fatalf("reset batch reported %v", bad)
	}
}
