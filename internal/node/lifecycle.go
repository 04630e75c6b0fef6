package node

import (
	"strconv"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/simnet"
)

// This file is the node's slot lifecycle (§III-D/E): one state, the table
// that moves it, the arrival door that reads it, and the commands that
// drive it.

// Role is what a node does with its slot. Config.Role sets the first one of
// a node that hosts a slot; lifecycle commands set every later one.
type Role uint8

const (
	// RolePrimary runs operators and emits output.
	RolePrimary Role = iota
	// RoleStandby runs operators but sends and emits nothing (rep-2
	// replica).
	RoleStandby
	// RoleIdle runs no operators; it stores checkpoint data and stands
	// by as a replacement (node F in Fig. 4).
	RoleIdle
	// roleHandedOff has handed its slot off (§III-E) and relays what still
	// arrives to the new host.
	roleHandedOff
	// roleCatchingUp is a restored sink: it runs, but withholds external
	// output until the replay-end markers arrive (§III-D).
	roleCatchingUp
	// roleFailed and roleStopped are terminal, and stay last.
	roleFailed
	roleStopped
)

var roleNames = [...]string{"primary", "standby", "idle", "handed-off", "catching-up", "failed", "stopped"}

// dead reports whether the role is terminal.
func (r Role) dead() bool { return r >= roleFailed }

// lifecycle is one value of a node's lifecycle state, never changed in
// place. Pausing is independent of the role: a primary, a standby, a
// catching-up sink and an idle node can each be paused and resume as what
// they were, so the pause depth rides beside the role. "paused" and
// "restored" name a state with pauses > 0, the latter with its door closed.
type lifecycle struct {
	role Role
	// pauses counts the holders of an executor pause; the executor runs
	// only at zero, so a nested pause (a key-range import into a donor the
	// region paused) cannot reopen it.
	pauses int
	// closed is a restore's stream door, shut until the last resume.
	closed bool
	target simnet.NodeID // where a handed-off node relays arrivals
}

// initial holds the states New starts a node in, so New allocates none.
var initial = [...]lifecycle{{role: RolePrimary}, {role: RoleStandby}, {role: RoleIdle}}

func (s *lifecycle) String() string {
	switch {
	case s.role.dead() || s.pauses == 0:
		return roleNames[s.role]
	case s.closed:
		return "restored " + roleNames[s.role]
	}
	return "paused " + roleNames[s.role]
}

// next is the lifecycle table: the state command c moves s to, and false
// where the table forbids c in s. sink says the node hosts a sink slot;
// why is a handoff's relay target.
//
//	command                legal in                       moves to
//	activate, transfer-in  idle, handed-off               primary
//	promote                standby                        primary
//	pause                  any live state                 one more pause
//	resume                 paused, restored               one pause fewer; the door opens at none
//	replay-end             primary, catching-up           primary
//	restore                paused primary or catching-up  restored: catching-up if sink, else primary
//	fetch-restore          paused primary or catching-up  paused primary
//	replay                 paused primary or catching-up  unchanged
//	handoff                paused primary or catching-up  handed-off, its own pause released
//	fail                   any but failed                 failed
//	stop                   any live state                 stopped
//
// A failed or stopped node ignores every other command.
func (s lifecycle) next(c CommandOp, sink bool, why string) (lifecycle, bool) {
	hosting := s.role == RolePrimary || s.role == roleCatchingUp
	switch {
	case c == cmdFail && s.role != roleFailed:
		return lifecycle{role: roleFailed}, true
	case s.role.dead():
		return s, false
	case c == cmdStop:
		return lifecycle{role: roleStopped}, true
	case c == CmdPause:
		s.pauses++
	case c == CmdResume && s.pauses > 0:
		s.pauses--
		s.closed = s.closed && s.pauses > 0
	case (c == CmdActivate || c == cmdTransferIn) && (s.role == RoleIdle || s.role == roleHandedOff):
		s.role, s.target = RolePrimary, ""
	case c == CmdPromote && s.role == RoleStandby:
		s.role = RolePrimary
	case c == cmdReplayEnd && hosting:
		s.role = RolePrimary
	case !hosting || s.pauses == 0:
		return s, false
	case c == CmdRestore:
		s.role, s.closed = RolePrimary, true
		if sink {
			s.role = roleCatchingUp
		}
	case c == CmdFetchRestore:
		s.role = RolePrimary
	case c == CmdReplay:
	case c == CmdHandoff:
		s = lifecycle{role: roleHandedOff, pauses: s.pauses - 1, target: simnet.NodeID(why)}
	default:
		return s, false
	}
	return s, true
}

// transitionLocked applies lifecycle command c and is the only writer of
// the state. A role change is journaled as node.state, a command the table
// forbids as node.state.illegal, each with the state, the command and why.
// A failed or stopped node ignores commands without a journal entry: a
// crash races every command. Caller holds n.mu.
func (n *Node) transitionLocked(c CommandOp, why string) bool {
	from, p := n.life.Load(), n.pipe.Load()
	to, ok := from.next(c, p != nil && p.isSink, why)
	switch {
	case !ok && !from.role.dead():
		n.jot("node.state.illegal", 0, from.String()+" "+c.String()+": "+why)
	case ok && to.role != from.role:
		n.jot("node.state", 0, from.String()+" "+c.String()+" -> "+to.String()+": "+why)
	}
	if ok {
		n.life.Store(&to)
	}
	return ok
}

// door is what the node does with an arrival.
type door uint8

const (
	doorEnqueue door = iota // into the queue of its origin (dropped if the slot has none)
	doorBuffer              // into preBuf until the slot activates
	doorRelay               // to the handoff target
	doorDrop
)

// admit is the arrival door: one decision for external ingest, stream
// messages and batches. A restored node's closed door drops stream
// arrivals: every peer is paused until the region resumes, so whatever
// arrives is stale pre-failure traffic from a sender that has not yet
// restored, and would poison the freshly reset dedup state against the
// replay. External input passes: it was never processed, so it runs after
// the replayed log.
func (s *lifecycle) admit(external bool) door {
	switch {
	case s.role.dead():
		return doorDrop
	case s.role == RoleIdle:
		return doorBuffer
	case s.role == roleHandedOff:
		return doorRelay
	case s.closed && !external:
		return doorDrop
	}
	return doorEnqueue
}

// divertLocked carries out a door other than an enqueue for one message,
// releasing n.mu.
func (n *Node) divertLocked(d door, to simnet.NodeID, m *streamMsg) {
	if d == doorBuffer {
		n.bufferEarlyLocked(m)
	}
	n.mu.Unlock()
	if d == doorRelay {
		n.relay(to, simnet.ClassData, m.Item.WireSize(), *m)
	}
}

// Start launches the node's goroutines.
func (n *Node) Start() {
	n.wg.Add(4)
	go n.dispatchLoop()
	go n.controlLoop()
	go n.execLoop()
	go n.flushLoop()
	if n.cfg.Scheme.Checkpoints() {
		n.wg.Add(1)
		go n.persistLoop()
	}
}

// Stop shuts the node down gracefully and waits for its goroutines.
func (n *Node) Stop() {
	n.shutdown(cmdStop)
	n.wg.Wait()
	// With every loop stopped, deliver the emissions still waiting on
	// the latency bound: the unbatched path sent each emission before
	// returning, and a graceful stop keeps that guarantee. (A crash
	// goes through Fail, which rightly loses them.)
	n.batch.flushAll()
}

// Fail crashes the phone: goroutines stop, the endpoint is sealed, local
// storage is lost. It does not wait: a crash is not graceful.
func (n *Node) Fail() {
	n.cfg.Phone.Kill()
	n.cfg.Store.MarkLost()
	n.cfg.Endpoint.Seal()
	n.shutdown(cmdFail)
}

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.life.Load().role == roleFailed }

// Hosts reports whether the node is live and hosts slot s as its primary
// (a catching-up sink included). It takes no lock.
func (n *Node) Hosts(s graph.SlotID) bool {
	role := n.life.Load().role
	p := n.pipe.Load()
	return (role == RolePrimary || role == roleCatchingUp) && p != nil && p.slotID == s
}

func (n *Node) shutdown(c CommandOp) {
	n.mu.Lock()
	n.transitionLocked(c, "")
	n.mu.Unlock()
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.cond.Broadcast()
}

// pauseBound is how long, in wall time, a pause waits for the executor to
// park.
const pauseBound = 5 * time.Second

// pause takes one pause hold and waits up to bound, in wall time, for the
// executor to park at a tuple boundary. It reports whether it parked; one
// that did not is journaled as node.pause_timeout. The hold stays taken
// either way, for the caller to resume.
func (n *Node) pause(why string, bound time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.transitionLocked(CmdPause, why) {
		return false
	}
	if n.execParked {
		return true
	}
	expired := false
	t := time.AfterFunc(bound, func() {
		n.mu.Lock()
		expired = true
		n.mu.Unlock()
		n.cond.Broadcast()
	})
	defer t.Stop()
	for !n.execParked && !expired && !n.life.Load().role.dead() {
		n.cond.Wait()
	}
	if expired && !n.execParked {
		n.jot("node.pause_timeout", 0, why)
	}
	return n.execParked && !n.life.Load().role.dead()
}

// resume releases one pause hold. The executor runs again, and a restored
// node's door reopens, when the last hold is released.
func (n *Node) resume(why string) {
	n.mu.Lock()
	n.transitionLocked(CmdResume, why)
	n.mu.Unlock()
	n.cond.Broadcast()
}

// parked reports whether a pause holds the executor parked at a tuple
// boundary, so that executor-owned state may be changed.
func (n *Node) parked() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.execParked && n.life.Load().pauses > 0
}

// PauseExec takes one pause hold (see pause) and reports whether the
// executor parked; every call needs its ResumeExec.
func (n *Node) PauseExec() bool { return n.pause("exec", pauseBound) }

// ResumeExec releases the hold of one PauseExec.
func (n *Node) ResumeExec() { n.resume("exec") }

// promote turns a rep-2 standby into the primary (CmdPromote): it starts
// emitting. It reports whether the lifecycle allowed it.
func (n *Node) promote() bool {
	n.mu.Lock()
	ok := n.transitionLocked(CmdPromote, "")
	n.mu.Unlock()
	if ok {
		n.jot("node.promote", 0, "")
	}
	return ok
}

// activate configures an idle node to host a slot (CmdActivate, a
// recovery replacement) and reports whether the lifecycle allowed it. The
// controller then issues CmdRestore/CmdReplay as needed.
func (n *Node) activate(slot string) bool {
	if _, ok := n.graph.SlotID(slot); !ok {
		return false
	}
	n.mu.Lock()
	if !n.transitionLocked(CmdActivate, slot) {
		n.mu.Unlock()
		return false
	}
	n.configureSlot(slot, n.graph.OpsOnSlot(slot))
	buffered := n.takeEarlyLocked()
	n.mu.Unlock()
	for i := range buffered {
		n.enqueueStream(&buffered[i])
	}
	n.cond.Broadcast()
	return true
}

// preBufLimit bounds the stream arrivals an incoming replacement buffers
// before its state transfer installs; later ones are dropped and counted.
const preBufLimit = 4096

// bufferEarlyLocked buffers one stream arrival at a node not yet hosting a
// slot, or counts it dropped past preBufLimit. Caller holds n.mu.
func (n *Node) bufferEarlyLocked(m *streamMsg) {
	if len(n.preBuf) < preBufLimit {
		n.preBuf = append(n.preBuf, *m)
		return
	}
	n.preDrops++
}

// takeEarlyLocked hands over the arrivals buffered before activation, and
// journals (and logs) how many were dropped past the bound, once per
// activation. Caller holds n.mu and has configured the slot.
func (n *Node) takeEarlyLocked() []streamMsg {
	buffered := n.preBuf
	n.preBuf = nil
	if n.preDrops > 0 {
		n.jot("migrate.prebuf_drop", 0, strconv.Itoa(n.preDrops))
		n.preDrops = 0
	}
	return buffered
}
