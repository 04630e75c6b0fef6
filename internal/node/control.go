package node

import (
	"mobistreams/internal/broadcast"
	"mobistreams/internal/simnet"
)

// dispatchLoop drains the endpoint inbox. Cheap data-plane work (stream
// enqueue, checkpoint block assembly) happens inline; blocking control work
// is forwarded to the control goroutine.
func (n *Node) dispatchLoop() {
	defer n.wg.Done()
	inbox := n.cfg.Endpoint.Inbox()
	for {
		select {
		case m := <-inbox:
			n.dispatch(m)
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) dispatch(m simnet.Message) {
	// Every arrival costs receive energy (WiFi and cellular alike): a
	// phone that mostly listens — checkpoint broadcasts, preserved source
	// replicas, replicated tuples — still drains real battery, and the
	// placement planner's risk telemetry depends on that drain being modelled.
	if m.Size > 0 && !n.cfg.Phone.DrainRx(m.Size) {
		n.Fail()
		return
	}
	switch m.Class {
	case simnet.ClassData, simnet.ClassReplication, simnet.ClassRecovery:
		switch p := m.Payload.(type) {
		case streamMsg:
			n.enqueueStream(&p)
		case *batchMsg:
			n.enqueueStreamBatch(p)
		case InterRegionMsg:
			if n.cfg.OnIngest != nil {
				n.cfg.OnIngest(p.SrcOp, p.Value, p.Size, p.Kind)
			}
		default:
			// Recovery-control requests (blob fetches, resend requests)
			// share the recovery class with resent data; route them to
			// the control goroutine.
			select {
			case n.ctrlCh() <- m:
			case <-n.stopCh:
			}
		}
	case simnet.ClassCode:
		// Operator code shipping is modelled by its transfer cost only.
	case simnet.ClassPreserve:
		if pm, ok := m.Payload.(*preserveMsg); ok {
			n.cfg.Store.AppendSourceReplica(pm.Version, pm.Source, pm.Ts)
		}
	case simnet.ClassCheckpoint:
		switch p := m.Payload.(type) {
		case broadcast.FillMsg:
			n.recv.OnFill(p)
		case distBlobMsg:
			n.cfg.Store.PutBlob(p.Blob)
		default:
			// UDP blocks, alone or a burst of one airtime reservation.
			n.rxGrams = simnet.Datagrams(n.rxGrams[:0], m)
			n.recv.OnBlocks(n.rxGrams)
		}
	default:
		// A route table installs here, so no slow control handler holds
		// up the senders parked on the old one.
		if c, ok := m.Payload.(Command); ok && c.Op == CmdRoutes {
			n.installRoutes(c.Routes)
			return
		}
		select {
		case n.ctrlCh() <- m:
		case <-n.stopCh:
		}
	}
}

// ctrlCh lazily builds the control channel (kept out of New for zero-value
// friendliness of tests constructing partial nodes).
func (n *Node) ctrlCh() chan simnet.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ctrl == nil {
		n.ctrl = make(chan simnet.Message, simnet.DefaultInbox) // low-rate: depth peaks at ~5
	}
	return n.ctrl
}

// controlLoop serves bitmap queries, controller commands and peer recovery
// requests.
func (n *Node) controlLoop() {
	defer n.wg.Done()
	ch := n.ctrlCh()
	for {
		select {
		case m := <-ch:
			n.handleControl(m)
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) handleControl(m simnet.Message) {
	switch p := m.Payload.(type) {
	case broadcast.QueryMsg:
		n.cfg.WiFi.Respond(m, n.id, simnet.ClassBitmap, broadcast.BitmapWireBytes(p.Total), n.recv.Answer(p))
	case Command:
		n.handleCommand(m, p)
	case fetchBlobReq:
		n.handleFetchBlob(m, p)
	case resendReq:
		n.injectCmd(execCmd{resendTo: p.Downstream, after: p.After})
	case truncateMsg:
		n.cfg.Store.TruncateEdge(p.Downstream, p.Upto)
	case transferMsg:
		n.handleTransferIn(m.From, p)
	case KeyRangeMsg:
		n.handleKeyRangeIn(m, p)
	default:
	}
}

func (n *Node) handleCommand(m simnet.Message, c Command) {
	switch c.Op {
	case CmdToken:
		n.InjectToken(c.Version)
	case CmdSnapshot:
		n.injectCmd(execCmd{snapshot: c.Version})
	case CmdCommit:
		n.handleCommit(c.Version)
	case CmdPause:
		// A pause that did not park fails the controller's step: no reply.
		if n.pause("controller", pauseBound) {
			n.answer(m, Answer{})
		}
	case CmdResume:
		n.resume("controller")
		n.answer(m, Answer{})
	case CmdRestore:
		n.report(n.restore(c.Version))
	case CmdReplay:
		n.replayFrom(c.Version, c.Epoch)
	case CmdPromote:
		// A command the lifecycle refuses is not answered: the step fails.
		if n.promote() {
			n.answer(m, Answer{})
		}
	case CmdActivate:
		if n.activate(c.Slot) {
			n.answer(m, Answer{})
		}
	case CmdHandoff:
		n.handoff(c.Target)
	case CmdSplit, CmdMerge:
		var a Answer
		if err := n.moveKeys(c); err != nil {
			a.Err = err.Error()
		}
		n.answer(m, a)
	case CmdFetchRestore:
		n.fetchRestore(c)
	case CmdPing:
		// A slot-carrying ping is only answered by the slot's actual
		// host: a phone that vacated the slot (lost migration, stale
		// placement) stays silent, which is what lets the controller
		// detect a stranded slot and re-host it. The answer carries the
		// host's load, the elastic decision's reading of an instance.
		if c.Slot == "" || c.Slot == n.Slot() {
			n.answer(m, Answer{Backlog: n.Backlog(), Processed: n.Processed()})
		}
	default:
	}
}

// answerBytes is the modelled size of an answer without an error: two
// 8-byte counters.
const answerBytes = 16

// answer replies to a controller request over cellular.
func (n *Node) answer(m simnet.Message, a Answer) {
	if m.Reply == nil {
		return
	}
	if n.cfg.Cell != nil {
		n.cfg.Cell.Respond(m, n.id, simnet.ClassControl, answerBytes+len(a.Err), a)
	}
}
