package operator

import (
	"bytes"
	"reflect"
	"testing"

	"mobistreams/internal/tuple"
)

func rangeFixture() *KeyedState {
	ks := newKeyedState()
	for _, k := range []string{"a", "b", "c", "m", "z"} {
		ks.put(k, []byte("v-"+k))
	}
	return ks
}

func collectRange(ks *KeyedState, lo, hi string) []string {
	var got []string
	ks.Range(lo, hi, func(k string, v []byte) bool {
		if want := "v-" + k; string(v) != want {
			panic("range visited key " + k + " with value " + string(v))
		}
		got = append(got, k)
		return true
	})
	return got
}

func TestKeyedStateRange(t *testing.T) {
	ks := rangeFixture()
	cases := []struct {
		lo, hi string
		want   []string
	}{
		{"", "", []string{"a", "b", "c", "m", "z"}}, // unbounded
		{"b", "m", []string{"b", "c"}},              // hi exclusive
		{"b", "n", []string{"b", "c", "m"}},
		{"a", "a", nil},          // empty interval
		{"m", "b", nil},          // inverted interval
		{"zz", "", nil},          // past the last key
		{"", "a", nil},           // nothing below the first key
		{"z", "", []string{"z"}}, // lo inclusive at the last key
		{"a", "b", []string{"a"}},
	}
	for _, c := range cases {
		if got := collectRange(ks, c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Range(%q,%q) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestKeyedStateRangeEarlyStop(t *testing.T) {
	ks := rangeFixture()
	var got []string
	ks.Range("", "", func(k string, _ []byte) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("early-stop visited %v", got)
	}
}

func TestKeyedStateRangeEmptyStore(t *testing.T) {
	ks := newKeyedState()
	if got := collectRange(ks, "", ""); got != nil {
		t.Fatalf("empty store yielded %v", got)
	}
	if n := ks.DeleteRange("", ""); n != 0 {
		t.Fatalf("DeleteRange on empty store removed %d", n)
	}
}

func TestKeyedStateExportImportDeleteRange(t *testing.T) {
	ks := rangeFixture()
	blob := ks.ExportRange([2]string{"b", "n"}) // b, c, m

	// Export framing matches encode framing: a store holding exactly the
	// range decodes it and round-trips to the same bytes.
	sub := newKeyedState()
	if err := sub.decode(blob); err != nil {
		t.Fatalf("decode exported range: %v", err)
	}
	if got := sub.keys(); !reflect.DeepEqual(got, []string{"b", "c", "m"}) {
		t.Fatalf("exported keys %v", got)
	}
	if !bytes.Equal(sub.encode(), blob) {
		t.Fatal("ExportRange framing differs from Encode framing")
	}
	// Several ranges export as one message.
	if err := sub.decode(ks.ExportRange([2]string{"", "b"}, [2]string{"m", ""})); err != nil {
		t.Fatalf("decode exported ranges: %v", err)
	}
	if got := sub.keys(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("keys exported from two ranges: %v", got)
	}

	if n := ks.DeleteRange("b", "n"); n != 3 {
		t.Fatalf("DeleteRange removed %d keys, want 3", n)
	}
	if got := ks.keys(); !reflect.DeepEqual(got, []string{"a", "z"}) {
		t.Fatalf("donor keys after delete: %v", got)
	}

	// Import merges without disturbing resident keys.
	dst := newKeyedState()
	dst.put("q", []byte("v-q"))
	if err := dst.ImportRange(blob); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := dst.keys(); !reflect.DeepEqual(got, []string{"b", "c", "m", "q"}) {
		t.Fatalf("recipient keys after import: %v", got)
	}

	// Donor + recipient together hold exactly the original keyspace.
	if err := dst.ImportRange(ks.encode()); err != nil {
		t.Fatalf("merge back: %v", err)
	}
	dst.remove("q")
	if !bytes.Equal(dst.encode(), rangeFixture().encode()) {
		t.Fatal("split + merge did not reconstruct the original store")
	}
}

func TestKeyedStateRangeSize(t *testing.T) {
	ks := rangeFixture()
	if got, want := ks.rangeSize("", ""), ks.size(); got != want {
		t.Fatalf("unbounded RangeSize %d != Size %d", got, want)
	}
	if got, want := ks.rangeSize("b", "n"), len(ks.ExportRange([2]string{"b", "n"})); got != want {
		t.Fatalf("RangeSize %d != len(ExportRange) %d", got, want)
	}
	if got := ks.rangeSize("x", "y"); got != 8 {
		t.Fatalf("empty RangeSize %d, want header-only 8", got)
	}
}

func TestKeyTag(t *testing.T) {
	kt := NewKeyTag("kb", func(t *tuple.Tuple) string { return "cell-" + t.Kind })
	outs, err := Run(kt, "", &tuple.Tuple{Seq: 7, Kind: "x", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].T.Kind != "cell-x" || outs[0].T.Seq != 7 {
		t.Fatalf("keytag outs: %+v", outs)
	}
}

func TestKeyedTally(t *testing.T) {
	kt := NewKeyedTally("tally")
	for i := 0; i < 3; i++ {
		if _, err := Run(kt, "", &tuple.Tuple{Seq: uint64(i), Kind: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(kt, "", &tuple.Tuple{Seq: 9, Kind: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := kt.Count("a"); got != 3 {
		t.Fatalf("count(a) = %d", got)
	}
	if got := kt.Count("b"); got != 1 {
		t.Fatalf("count(b) = %d", got)
	}
	// Snapshot/Restore round-trip.
	blob, err := kt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	kt2 := NewKeyedTally("tally")
	if err := kt2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if kt2.Count("a") != 3 || kt2.Count("b") != 1 {
		t.Fatal("restore lost tallies")
	}
}
