package ft

import "testing"

func TestStringParseRoundTrip(t *testing.T) {
	schemes := []Scheme{BaseScheme, Rep2Scheme, LocalScheme, Dist(1), Dist(3), MSScheme}
	for _, s := range schemes {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("parse %q: %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %q -> %+v", s.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "nope", "dist-", "dist-0", "dist-x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPolicyPredicates(t *testing.T) {
	if !MSScheme.UsesTokens() || BaseScheme.UsesTokens() || LocalScheme.UsesTokens() {
		t.Fatal("UsesTokens wrong")
	}
	if !MSScheme.PreservesAtSources() || LocalScheme.PreservesAtSources() {
		t.Fatal("PreservesAtSources wrong")
	}
	if !LocalScheme.PreservesAtEdges() || !Dist(2).PreservesAtEdges() || MSScheme.PreservesAtEdges() {
		t.Fatal("PreservesAtEdges wrong")
	}
	if !LocalScheme.PeriodicSnapshot() || MSScheme.PeriodicSnapshot() || Rep2Scheme.PeriodicSnapshot() {
		t.Fatal("PeriodicSnapshot wrong")
	}
	if !Rep2Scheme.Replicated() || MSScheme.Replicated() {
		t.Fatal("Replicated wrong")
	}
	if BaseScheme.Checkpoints() || Rep2Scheme.Checkpoints() || !MSScheme.Checkpoints() || !Dist(1).Checkpoints() {
		t.Fatal("Checkpoints wrong")
	}
	if !MSScheme.HandlesDepartures() || Dist(3).HandlesDepartures() {
		t.Fatal("HandlesDepartures wrong")
	}
}

func TestCanRecover(t *testing.T) {
	cases := []struct {
		s     Scheme
		k     int
		spare int
		want  bool
	}{
		{BaseScheme, 0, 0, true},
		{BaseScheme, 1, 8, false},
		{Rep2Scheme, 1, 0, true},
		{Rep2Scheme, 2, 8, false},
		{LocalScheme, 8, 0, true},
		{Dist(2), 2, 2, true},
		{Dist(2), 3, 8, false},
		{Dist(2), 2, 1, false},
		{MSScheme, 8, 8, true},
		{MSScheme, 3, 2, false},
		{MSScheme, 0, 0, true},
	}
	for _, c := range cases {
		if got := c.s.CanRecover(c.k, c.spare); got != c.want {
			t.Errorf("%s.CanRecover(%d,%d) = %v, want %v", c.s, c.k, c.spare, got, c.want)
		}
	}
}
