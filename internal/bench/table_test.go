package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// roundTrip writes rows as the named experiment's entry of a results file,
// reads the file back through ReadResults and the entry's Decode, and
// returns the decoded rows with the file's text.
func roundTrip[R any](t *testing.T, name string, rows []R) ([]R, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteResults(f, map[string]any{name: rows}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	results, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if e.Name != name {
			continue
		}
		got, err := e.Decode(results[name])
		if err != nil {
			t.Fatalf("results are not valid %s rows: %v", name, err)
		}
		raw, _ := os.ReadFile(path)
		return got.([]R), string(raw)
	}
	t.Fatalf("no experiment %q in the table", name)
	return nil, ""
}

// TestTableIsWellFormed: names are unique, every gate row can print itself,
// and the baselined rows are exactly the numeric keys of the committed
// BENCH_baseline.json.
func TestTableIsWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	var keys []string
	for _, e := range Experiments {
		if e.Name == "" || seen[e.Name] || e.About == "" || e.Run == nil {
			t.Errorf("experiment %q: empty, duplicate or incomplete entry", e.Name)
		}
		seen[e.Name] = true
		if len(e.Gates) > 0 && (e.Decode == nil || e.Missing == "") {
			t.Errorf("experiment %q is gated but has no Decode or Missing", e.Name)
		}
		for _, g := range e.Gates {
			if g.What == "" || g.Format == "" || g.Fail == "" || g.Pick == nil {
				t.Errorf("experiment %q: incomplete gate row %+v", e.Name, g)
			}
			if g.Key != "" {
				keys = append(keys, g.Key)
			}
		}
	}
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var committed []string
	for k, v := range fields {
		if _, numeric := v.(float64); numeric {
			committed = append(committed, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(committed)
	if !reflect.DeepEqual(keys, committed) {
		t.Fatalf("gate keys %v != BENCH_baseline.json keys %v", keys, committed)
	}
}

// TestReadResultsMergesByName: one file per experiment merges into one
// result set; a later file's entry replaces an earlier one's.
func TestReadResultsMergesByName(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", `{"churn": [1], "scale": [2]}`)
	b := write("b.json", `{"scale": [3]}`)
	got, err := ReadResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["churn"]) != "[1]" || string(got["scale"]) != "[3]" {
		t.Fatalf("merged = %v", got)
	}
	if _, err := ReadResults(write("bad.json", `[`)); err == nil {
		t.Fatal("malformed results file read without error")
	}
}
