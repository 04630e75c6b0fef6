package keyed

import (
	"reflect"
	"testing"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 0); err == nil {
		t.Fatal("active=0 accepted")
	}
	if _, err := NewTable([]string{"b", "b"}, 2); err == nil {
		t.Fatal("duplicate bounds accepted")
	}
	if _, err := NewTable([]string{"c", "b"}, 2); err == nil {
		t.Fatal("descending bounds accepted")
	}
	if _, err := NewTable([]string{""}, 2); err == nil {
		t.Fatal("empty bound accepted")
	}
}

func TestTableOwnerSingle(t *testing.T) {
	tbl, err := NewTable(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a", "zzz"} {
		if got := tbl.owner(k); got != 0 {
			t.Fatalf("Owner(%q) = %d", k, got)
		}
	}
}

func TestTableOwnerBounds(t *testing.T) {
	tbl, err := NewTable([]string{"h", "p"}, 3) // [,h)->0 [h,p)->1 [p,)->2
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{
		"":  0,
		"a": 0, "g~": 0,
		"h": 1, "hzz": 1, "o": 1,
		"p": 2, "z": 2,
	}
	for k, want := range cases {
		if got := tbl.owner(k); got != want {
			t.Errorf("Owner(%q) = %d, want %d", k, got, want)
		}
	}
	if lo, hi := tbl.RangeOf("h"); lo != "h" || hi != "p" {
		t.Fatalf("RangeOf(h) = [%q,%q)", lo, hi)
	}
	if lo, hi := tbl.RangeOf("z"); lo != "p" || hi != "" {
		t.Fatalf("RangeOf(z) = [%q,%q)", lo, hi)
	}
}

func TestSplitAndMerge(t *testing.T) {
	tbl, err := NewTable([]string{"m"}, 2) // [,m)->0 [m,)->1
	if err != nil {
		t.Fatal(err)
	}

	// Split the hot lower range at "f", handing [f,m) to instance 2.
	next, moved, err := tbl.Split("f", 2)
	if err != nil {
		t.Fatal(err)
	}
	if moved != [2]string{"f", "m"} {
		t.Fatalf("moved range %v", moved)
	}
	if next.Epoch() != tbl.Epoch()+1 {
		t.Fatal("split did not bump epoch")
	}
	if got := next.String(); got != "[,f)->0 [f,m)->2 [m,)->1" {
		t.Fatalf("after split: %s", got)
	}
	if next.owner("f") != 2 || next.owner("e") != 0 || next.owner("m") != 1 {
		t.Fatal("split ownership wrong")
	}
	if got := next.Instances(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("instances %v", got)
	}

	// Splitting at an existing bound or with an empty bound fails.
	if _, _, err := next.Split("m", 3); err == nil {
		t.Fatal("split at existing bound accepted")
	}
	if _, _, err := next.Split("", 3); err == nil {
		t.Fatal("split at empty bound accepted")
	}

	// Merge instance 2 back into 0: ranges [,f) and [f,m) coalesce.
	merged, movedRanges, err := next.MergeInto(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(movedRanges, [][2]string{{"f", "m"}}) {
		t.Fatalf("merge moved %v", movedRanges)
	}
	if got := merged.String(); got != "[,m)->0 [m,)->1" {
		t.Fatalf("after merge: %s", got)
	}
	if merged.Epoch() != next.Epoch()+1 {
		t.Fatal("merge did not bump epoch")
	}

	// Merging an instance that owns nothing fails.
	if _, _, err := merged.MergeInto(5, 0); err == nil {
		t.Fatal("merge of rangeless instance accepted")
	}
	if _, _, err := merged.MergeInto(1, 1); err == nil {
		t.Fatal("self-merge accepted")
	}
}

func TestOwnedRanges(t *testing.T) {
	tbl, _ := NewTable([]string{"f", "m"}, 2) // [,f)->0 [f,m)->1 [m,)->0
	if got := tbl.OwnedRanges(0); !reflect.DeepEqual(got, [][2]string{{"", "f"}, {"m", ""}}) {
		t.Fatalf("OwnedRanges(0) = %v", got)
	}
	if got := tbl.OwnedRanges(1); !reflect.DeepEqual(got, [][2]string{{"f", "m"}}) {
		t.Fatalf("OwnedRanges(1) = %v", got)
	}
}

func TestGroup(t *testing.T) {
	tbl, _ := NewTable([]string{"m"}, 2)
	if _, err := NewGroup("agg", nil, tbl); err == nil {
		t.Fatal("empty instance list accepted")
	}
	if _, err := NewGroup("agg", []string{"agg#0"}, tbl); err == nil {
		t.Fatal("table owner outside instance list accepted")
	}
	g, err := NewGroup("agg", []string{"agg#0", "agg#1", "agg#2"}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if g.Owner("a") != 0 || g.Owner("z") != 1 {
		t.Fatal("group owner lookup wrong")
	}
	if g.IndexOf("agg#2") != 2 || g.IndexOf("nope") != -1 {
		t.Fatal("IndexOf wrong")
	}
	next, _, err := g.Table().Split("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Install(next)
	if g.Owner("u") != 2 {
		t.Fatal("installed table not visible")
	}
}

func BenchmarkOwner(b *testing.B) {
	tbl, _ := NewTable([]string{"d", "h", "l", "p", "t"}, 6)
	g, _ := NewGroup("agg", []string{"a0", "a1", "a2", "a3", "a4", "a5"}, tbl)
	keys := []string{"a", "dz", "hq", "m", "q", "zz"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Owner(keys[i%len(keys)])
	}
}

// IndexOf resolves an instance operator ID to its index, or -1.
func (g *Group) IndexOf(instance string) int {
	for i, id := range g.instances {
		if id == instance {
			return i
		}
	}
	return -1
}

// RangeOf returns the half-open range [lo, hi) the key falls in; hi == ""
// means unbounded.
func (t *table) RangeOf(key string) (lo, hi string) {
	i := 0
	for i < len(t.bounds) && key >= t.bounds[i] {
		i++
	}
	if i > 0 {
		lo = t.bounds[i-1]
	}
	if i < len(t.bounds) {
		hi = t.bounds[i]
	}
	return lo, hi
}
