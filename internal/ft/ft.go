// Package ft enumerates the fault-tolerance schemes the paper evaluates
// (§IV-B) and the policy predicates the runtime branches on. The scheme
// implementations themselves live in the node, region and controller
// runtimes; this package is the single place that defines what each scheme
// does and can survive.
package ft

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies a fault-tolerance scheme.
type Kind int

const (
	// base is the baseline with no fault tolerance.
	base Kind = iota
	// Rep2 is active standby: two replicas per operator (Flux, Borealis
	// DPC). Tolerates exactly one failure.
	Rep2
	// local is checkpoint-to-local-storage with input preservation. Not
	// a realistic phone fault model; the paper's performance upper bound.
	local
	// DistN is distributed checkpointing: state unicast to N other nodes
	// plus input preservation (Cooperative HA, SGuard). Tolerates up to
	// N simultaneous failures.
	DistN
	// MS is MobiStreams: token-triggered checkpointing with source
	// preservation and broadcast-based persistence to every node.
	MS
)

// Scheme is a configured fault-tolerance scheme.
type Scheme struct {
	Kind Kind
	// N is the replica count for DistN.
	N int
}

// Common scheme constructors.
var (
	BaseScheme  = Scheme{Kind: base}
	Rep2Scheme  = Scheme{Kind: Rep2}
	LocalScheme = Scheme{Kind: local}
	MSScheme    = Scheme{Kind: MS}
)

// Dist returns a dist-n scheme.
func Dist(n int) Scheme { return Scheme{Kind: DistN, N: n} }

func (s Scheme) String() string {
	switch s.Kind {
	case base:
		return "base"
	case Rep2:
		return "rep-2"
	case local:
		return "local"
	case DistN:
		return fmt.Sprintf("dist-%d", s.N)
	case MS:
		return "ms"
	default:
		return fmt.Sprintf("scheme(%d)", int(s.Kind))
	}
}

// Parse parses a scheme name as printed by String ("base", "rep-2",
// "local", "dist-3", "ms").
func Parse(name string) (Scheme, error) {
	switch {
	case name == "base":
		return BaseScheme, nil
	case name == "rep-2" || name == "rep2":
		return Rep2Scheme, nil
	case name == "local":
		return LocalScheme, nil
	case name == "ms":
		return MSScheme, nil
	case strings.HasPrefix(name, "dist-"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "dist-"))
		if err != nil || n < 1 {
			return Scheme{}, fmt.Errorf("ft: bad dist scheme %q", name)
		}
		return Dist(n), nil
	default:
		return Scheme{}, fmt.Errorf("ft: unknown scheme %q", name)
	}
}

// UsesTokens reports whether checkpoints are coordinated by in-band tokens
// (MobiStreams) rather than per-node periodic snapshots.
func (s Scheme) UsesTokens() bool { return s.Kind == MS }

// PreservesAtSources reports whether only source nodes preserve input
// (MobiStreams' source preservation).
func (s Scheme) PreservesAtSources() bool { return s.Kind == MS }

// PreservesAtEdges reports whether every node retains its output tuples
// until the downstream checkpoint commits (classic input preservation).
func (s Scheme) PreservesAtEdges() bool { return s.Kind == local || s.Kind == DistN }

// PeriodicSnapshot reports whether the scheme snapshots on a timer without
// token coordination.
func (s Scheme) PeriodicSnapshot() bool { return s.Kind == local || s.Kind == DistN }

// Replicated reports whether every operator runs an active standby.
func (s Scheme) Replicated() bool { return s.Kind == Rep2 }

// Checkpoints reports whether the scheme checkpoints at all.
func (s Scheme) Checkpoints() bool {
	return s.Kind == local || s.Kind == DistN || s.Kind == MS
}

// CanRecover reports whether the scheme can recover from k simultaneous
// phone failures, with `spare` healthy phones available as replacements.
// MobiStreams recovers as long as at least one phone with full MRC data
// remains and there are enough phones to re-host the slots.
func (s Scheme) CanRecover(k, spare int) bool {
	if k == 0 {
		return true
	}
	switch s.Kind {
	case base:
		return false
	case Rep2:
		return k <= 1
	case local:
		// The phone "restarts" with its storage intact; any number of
		// restarts recover (the unrealistic upper-bound fault model).
		return true
	case DistN:
		return k <= s.N && spare >= k
	case MS:
		return spare >= k
	default:
		return false
	}
}

// HandlesDepartures reports whether the scheme has a mobility story
// (§III-E). Prior schemes were designed for servers and do not.
func (s Scheme) HandlesDepartures() bool { return s.Kind == MS }
