package prover

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/tag"
)

// TestColdFindDoesNotGrowWithShortcuts admits principals of a
// db -> 24 orgs -> 1000 principals graph one at a time, the way a
// gateway admits each client once. Every admit records a shortcut
// edge into the database issuer, all under the tag head "db". The
// edges the tag-bucket index hands the N-th cold search must not grow
// with the shortcuts recorded before it: a per-principal grant such as
// (db (owner u7)) sits in its own fine bucket, so it is no candidate
// for another principal's query.
func TestColdFindDoesNotGrowWithShortcuts(t *testing.T) {
	const orgs, principals = 24, 1000
	db := mkParty("growth-db")
	p := New()
	orgParties := make([]party, orgs)
	for i := range orgParties {
		orgParties[i] = mkParty(fmt.Sprintf("growth-org-%d", i))
		p.AddProof(mustDelegate(t, db, orgParties[i].pr, tag.ListOf(tag.Literal("db"))))
	}
	ownerTag := func(i int) tag.Tag {
		return tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.Literal(fmt.Sprintf("u%05d", i))))
	}
	members := make([]principal.Principal, principals)
	for i := range members {
		members[i] = mkParty(fmt.Sprintf("growth-user-%d", i)).pr
		p.AddProof(mustDelegate(t, orgParties[i%orgs], members[i], ownerTag(i)))
	}

	scanned := map[int]int{} // admit number -> edges scanned by it
	for i := range members {
		edges, before := p.EdgeCount(), p.Stats().EdgesScanned
		proof, err := p.FindProof(members[i], db.pr, ownerTag(i), now)
		if err != nil {
			t.Fatalf("admit %d: %v", i+1, err)
		}
		if n := i + 1; n == 100 || n == principals {
			scanned[n] = p.Stats().EdgesScanned - before
			if err := proof.Verify(core.NewVerifyContext()); err != nil {
				t.Fatalf("admit %d: %v", n, err)
			}
		}
		if got := p.EdgeCount(); got != edges+1 {
			t.Fatalf("admit %d recorded %d edges, want one shortcut", i+1, got-edges)
		}
	}
	t.Logf("edges scanned by the 100th cold admit: %d, by the 1000th: %d", scanned[100], scanned[principals])
	if scanned[principals] > scanned[100] {
		t.Fatalf("the 1000th cold admit scanned %d edges, the 100th %d: search cost grows with recorded shortcuts",
			scanned[principals], scanned[100])
	}
}
