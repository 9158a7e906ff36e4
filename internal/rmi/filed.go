package rmi

import (
	"container/list"
	"time"

	"repro/internal/core"
)

// maxFiledSpeakers bounds how many speakers keep verified proofs on
// file. A speaker is one channel key, or one quoted client behind a
// gateway, so the bound is the warm working set the server serves
// without re-challenging; past it the least recently used speaker is
// evicted and pays one challenge and one chain verification on its
// next call.
const maxFiledSpeakers = 256

// filedProofs is the server's "cache/proof" box of Figure 4: verified
// proofs filed by subject key, kept in least-recently-used order. When
// full, filing a new speaker first sweeps expired proofs and then
// evicts the least recently used speakers. Callers hold Server.mu.
type filedProofs struct {
	order *list.List               // *speakerProofs, most recent first
	index map[string]*list.Element // subject key -> element of order
}

type speakerProofs struct {
	key    string
	proofs []filedProof
}

type filedProof struct {
	proof  core.Proof
	expiry time.Time // conclusion's NotAfter; zero when unbounded
}

func (fp filedProof) expired(now time.Time) bool {
	return !fp.expiry.IsZero() && fp.expiry.Before(now)
}

func newFiledProofs() filedProofs {
	return filedProofs{order: list.New(), index: make(map[string]*list.Element)}
}

// get returns the proofs filed for a speaker and marks it recently
// used. The slice is the store's own: read it under Server.mu only.
func (f *filedProofs) get(key string) []filedProof {
	el, ok := f.index[key]
	if !ok {
		return nil
	}
	f.order.MoveToFront(el)
	return el.Value.(*speakerProofs).proofs
}

// add files a verified proof for a speaker, dropping the speaker's
// expired proofs; a new speaker beyond the bound displaces expired
// entries first and the least recently used speakers after that.
func (f *filedProofs) add(key string, p core.Proof, expiry time.Time, now time.Time) {
	fp := filedProof{proof: p, expiry: expiry}
	if el, ok := f.index[key]; ok {
		sp := el.Value.(*speakerProofs)
		sp.proofs = append(dropExpired(sp.proofs, now), fp)
		f.order.MoveToFront(el)
		return
	}
	if len(f.index) >= maxFiledSpeakers {
		f.sweep(now)
	}
	for len(f.index) >= maxFiledSpeakers {
		f.remove(f.order.Back())
	}
	f.index[key] = f.order.PushFront(&speakerProofs{key: key, proofs: []filedProof{fp}})
}

// sweep drops every expired proof and every speaker left with none.
func (f *filedProofs) sweep(now time.Time) {
	for el := f.order.Front(); el != nil; {
		next := el.Next()
		sp := el.Value.(*speakerProofs)
		if sp.proofs = dropExpired(sp.proofs, now); len(sp.proofs) == 0 {
			f.remove(el)
		}
		el = next
	}
}

func (f *filedProofs) remove(el *list.Element) {
	delete(f.index, el.Value.(*speakerProofs).key)
	f.order.Remove(el)
}

func dropExpired(fps []filedProof, now time.Time) []filedProof {
	kept := fps[:0]
	for _, fp := range fps {
		if !fp.expired(now) {
			kept = append(kept, fp)
		}
	}
	for i := len(kept); i < len(fps); i++ {
		fps[i] = filedProof{}
	}
	return kept
}
