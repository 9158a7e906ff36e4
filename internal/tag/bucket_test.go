package tag

import (
	"testing"
)

// TestBucketValues pins the bucketing rules the prover's edge index
// relies on.
func TestBucketValues(t *testing.T) {
	owner := func(who Tag) Tag { return ListOf(Literal("owner"), who) }
	cases := []struct {
		tg   Tag
		want Bucket
	}{
		{Literal("read"), Bucket{Head: "read", HasHead: true}},
		{Literal(""), Bucket{Head: "", HasHead: true}}, // the empty atom is a real bucket
		{ListOf(Literal("files"), Literal("read")), Bucket{Head: "files", HasHead: true}},
		{ListOf(Literal("files")), Bucket{Head: "files", HasHead: true}},
		{ListOf(Literal("files"), Prefix("/tmp/")), Bucket{Head: "files", HasHead: true, ScanAll: true}},
		{All(), Bucket{ScanAll: true}},
		{Prefix("re"), Bucket{ScanAll: true}},
		{Range(OrdAlpha, BoundGE, "a", BoundLE, "z"), Bucket{ScanAll: true}},
		{SetOf(Literal("read"), Literal("write")), Bucket{ScanAll: true}},
		{SetOf(), Bucket{ScanAll: true}},
		{ListOf(), Bucket{ScanAll: true}},            // () covers every list
		{ListOf(All()), Bucket{ScanAll: true}},       // star head spans buckets
		{ListOf(Prefix("f")), Bucket{ScanAll: true}}, // prefix head spans buckets
		{ListOf(ListOf()), Bucket{ScanAll: true}},    // list head is unbucketable
		{Tag{}, Bucket{ScanAll: true}},               // invalid zero tag

		// The fine level: (h (h1 a1 ...) ...) with atoms h, h1, a1.
		{ListOf(Literal("db"), owner(Literal("u00042"))),
			Bucket{Head: "db", Fine: "db\x00owner\x00u00042", HasHead: true, HasFine: true}},
		{ListOf(Literal("db"), ListOf(Literal("owner"), Literal("alice"), Literal("x")), ListOf(Literal("op"), Literal("select"))),
			Bucket{Head: "db", Fine: "db\x00owner\x00alice", HasHead: true, HasFine: true}},
		{ListOf(Literal("db"), ListOf(Literal("owner"))), Bucket{Head: "db", HasHead: true}},
		{ListOf(Literal("db"), ListOf(Literal("owner"), ListOf(Literal("x")))), Bucket{Head: "db", HasHead: true}},
		{ListOf(Literal("db"), ListOf(ListOf(Literal("x")), Literal("alice"))), Bucket{Head: "db", HasHead: true}},
		// A star form at element 1 or at its positions 0-1 can be
		// covered by fine-keyed grants, so its query scans everything;
		// as a grant it is filed under the head key.
		{ListOf(Literal("db"), SetOf(owner(Literal("alice")))), Bucket{Head: "db", HasHead: true, ScanAll: true}},
		{ListOf(Literal("db"), owner(All())), Bucket{Head: "db", HasHead: true, ScanAll: true}},
		{ListOf(Literal("db"), owner(SetOf(Literal("u1")))), Bucket{Head: "db", HasHead: true, ScanAll: true}},
		{ListOf(Literal("db"), ListOf(Prefix("ow"), Literal("u1"))), Bucket{Head: "db", HasHead: true, ScanAll: true}},
		{ListOf(Literal("db"), ListOf(All())), Bucket{Head: "db", HasHead: true, ScanAll: true}},
		{ListOf(SetOf(Literal("db")), owner(Literal("alice"))), Bucket{ScanAll: true}},
	}
	for _, c := range cases {
		if got := c.tg.Bucket(); got != c.want {
			t.Errorf("Bucket(%s) = %+v, want %+v", c.tg, got, c.want)
		}
	}
}

// bucketSound checks the contract the edge index depends on for one
// covering pair: grant a is in the catch-all, or query b scans the
// full fan-in, or a's key is one of b's lookup keys. A violation means
// a bucketed lookup could silently miss a covering grant.
func bucketSound(a, b Tag) bool {
	key, keyed := a.Bucket().Key()
	bb := b.Bucket()
	return !keyed || bb.ScanAll || (bb.HasHead && key == bb.Head) || (bb.HasFine && key == bb.Fine)
}

// bucketCorpus is every tag shape the two-level index distinguishes:
// atoms, star forms, lists with atom, star and list heads, and
// element-1 shapes with and without a fine key, each with and without
// a further element.
func bucketCorpus() []Tag {
	tags := []Tag{
		All(),
		Literal("read"), Literal("write"), Literal(""), Literal("db"),
		Prefix(""), Prefix("re"), Prefix("read"),
		Range(OrdAlpha, BoundGE, "a", BoundLE, "z"),
		Range(OrdNumeric, BoundGE, "1", BoundLE, "100"),
		SetOf(), SetOf(Literal("read")), SetOf(Literal("read"), Literal("write")),
		SetOf(Prefix("re"), ListOf(Literal("files"))),
		ListOf(),
		ListOf(Literal("files")),
		ListOf(Literal("files"), Literal("read")),
		ListOf(Literal("files"), All()),
		ListOf(Literal("files"), Prefix("/tmp/")),
		ListOf(Literal("mail"), Literal("read")),
		ListOf(All(), Literal("read")),
		ListOf(Prefix("fi"), Literal("read")),
		ListOf(SetOf(Literal("files"), Literal("mail")), Literal("read")),
		ListOf(ListOf(Literal("x"))),
	}
	heads := []Tag{Literal("db"), SetOf(Literal("db")), All(), Prefix("d")}
	alice := Literal("alice")
	elem1 := []Tag{
		ListOf(Literal("owner"), alice),
		ListOf(Literal("owner"), Literal("bob")),
		ListOf(Literal("owner"), All()),
		ListOf(Literal("owner"), SetOf(alice)),
		ListOf(Literal("owner"), SetOf(alice, Literal("bob"))),
		SetOf(ListOf(Literal("owner"), alice)),
		ListOf(Literal("owner")),
		ListOf(Literal("owner"), alice, Literal("x")),
		ListOf(Prefix("own"), alice),
		ListOf(ListOf(Literal("owner")), alice),
		All(),
		alice,
	}
	third := []Tag{
		ListOf(Literal("op"), Literal("select")),
		ListOf(Literal("op"), All()),
		ListOf(Literal("op"), SetOf(Literal("select"), Literal("insert"))),
	}
	for _, h := range heads {
		tags = append(tags, ListOf(h))
		for _, e1 := range elem1 {
			tags = append(tags, ListOf(h, e1))
			for _, e2 := range third {
				tags = append(tags, ListOf(h, e1, e2))
			}
		}
	}
	return tags
}

// TestBucketSoundVsCovers exhaustively checks the two-level contract
// over every covering pair of the corpus.
func TestBucketSoundVsCovers(t *testing.T) {
	tags := bucketCorpus()
	covering, fine := 0, 0
	for _, a := range tags {
		for _, b := range tags {
			if !Covers(a, b) {
				continue
			}
			covering++
			if !bucketSound(a, b) {
				key, _ := a.Bucket().Key()
				t.Errorf("Covers(%s, %s) but grant key %q is not among the query's keys %+v", a, b, key, b.Bucket())
			}
			if a.Bucket().HasFine && !b.Bucket().ScanAll {
				fine++
			}
		}
	}
	// Guard against a corpus that no longer exercises the fine level.
	if fine == 0 {
		t.Fatalf("no covering pair reached a fine-keyed grant through a bucketed query (%d covering pairs)", covering)
	}
	t.Logf("%d tags, %d covering pairs, %d through fine keys", len(tags), covering, fine)
}

// fuzzTag builds a small tag from the fuzz input, consuming bytes from
// the front. Atoms come from a short alphabet so that random pairs
// often share heads and fine keys; depth bounds the nesting.
func fuzzTag(in *[]byte, depth int) Tag {
	next := func() byte {
		if len(*in) == 0 {
			return 0
		}
		c := (*in)[0]
		*in = (*in)[1:]
		return c
	}
	atoms := []string{"db", "owner", "alice", "bob", "op", "", "d"}
	c := next()
	if depth <= 0 {
		c %= 3 // leaves only
	}
	switch c % 8 {
	case 0, 1:
		return Literal(atoms[int(next())%len(atoms)])
	case 2:
		return All()
	case 3:
		return Prefix(atoms[int(next())%len(atoms)])
	case 4:
		n := int(next() % 3)
		kids := make([]Tag, n)
		for i := range kids {
			kids[i] = fuzzTag(in, depth-1)
		}
		return SetOf(kids...)
	default:
		n := int(next() % 4)
		kids := make([]Tag, n)
		for i := range kids {
			kids[i] = fuzzTag(in, depth-1)
		}
		return ListOf(kids...)
	}
}

// FuzzBucketSound checks the two-level bucket contract on random
// pairs of small tags: whenever the first covers the second, the
// second's lookup must reach the first.
func FuzzBucketSound(f *testing.F) {
	// Seeds, in fuzzTag's encoding: (db (owner alice)) against
	// (db (owner (* set alice))), (db (* set (owner alice))) and
	// (db ((* prefix owner) alice)); (db) against (db (owner bob));
	// (*) against (db (owner alice) (op (*))).
	own := []byte{5, 2, 0, 0, 5, 2, 0, 1, 0, 2}
	for _, b := range [][]byte{
		{5, 2, 0, 0, 5, 2, 0, 1, 4, 1, 0, 2},
		{5, 2, 0, 0, 4, 1, 5, 2, 0, 1, 0, 2},
		{5, 2, 0, 0, 5, 2, 3, 1, 0, 2},
	} {
		f.Add(append(append([]byte(nil), own...), b...))
	}
	f.Add([]byte{5, 1, 0, 0, 5, 2, 0, 0, 5, 2, 0, 1, 0, 3})
	f.Add([]byte{2, 5, 3, 0, 0, 5, 2, 0, 1, 0, 2, 5, 2, 0, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzTag(&data, 3)
		b := fuzzTag(&data, 3)
		for _, p := range [][2]Tag{{a, b}, {b, a}} {
			if Covers(p[0], p[1]) && !bucketSound(p[0], p[1]) {
				t.Fatalf("Covers(%s, %s) but grant bucket %+v misses query bucket %+v", p[0], p[1], p[0].Bucket(), p[1].Bucket())
			}
		}
	})
}
