package main

import (
	"os"
	"strings"
	"testing"

	"mobistreams/internal/bench"
)

// TestResolveRejectsUnknownNames: a typo in -exp or -apps is an error naming
// the valid values (main exits 2 on it), never an empty run that exits 0.
func TestResolveRejectsUnknownNames(t *testing.T) {
	if _, _, err := resolve("bogus", "bcp"); err == nil || !strings.Contains(err.Error(), "placement") {
		t.Fatalf("-exp bogus: err = %v, want one listing the table's names", err)
	}
	if _, _, err := resolve("churn,placment", "bcp"); err == nil {
		t.Fatal("-exp churn,placment resolved")
	}
	if _, _, err := resolve("fig10", "bcp,sq"); err == nil || !strings.Contains(err.Error(), `"sq"`) {
		t.Fatalf("-apps bcp,sq: err = %v, want one naming the unknown app", err)
	}
	exps, apps, err := resolve("fig10, churn", "bcp, signalguru")
	if err != nil || len(exps) != 2 || exps[0].Name != "fig10" || exps[1].Name != "churn" ||
		len(apps) != 2 || apps[0] != bench.BCP || apps[1] != bench.SG {
		t.Fatalf("resolve = %v %v %v", exps, apps, err)
	}
	if all, _, err := resolve("all", "bcp"); err != nil || len(all) != len(bench.Experiments) {
		t.Fatalf("-exp all resolved to %d of %d experiments (%v)", len(all), len(bench.Experiments), err)
	}
}

// TestUsageListsTheTable keeps the package comment regenerated from the
// table: one usage line per experiment, carrying its About text.
func TestUsageListsTheTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, e := range bench.Experiments {
		if !strings.Contains(doc, "msbench -exp "+e.Name+" ") || !strings.Contains(doc, "# "+e.About) {
			t.Errorf("package comment has no usage line for %q (%s)", e.Name, e.About)
		}
	}
}
