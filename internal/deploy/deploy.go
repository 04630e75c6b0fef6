// Package deploy assembles a MobiStreams deployment (Fig. 4): a scaled
// clock, the cellular network, one controller, and the regions it
// coordinates. It is the one place that wires a region to the rest of the
// deployment, so every caller gets the same clock, network, controller
// identity and scheme-derived options.
package deploy

import (
	"errors"
	"sync"

	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// Deployment is one controller and the regions it manages, on one clock and
// one cellular network.
type Deployment struct {
	Clock *clock.Scaled
	Cell  *simnet.Cellular
	Ctrl  *controller.Controller

	mu      sync.Mutex
	regions []*region.Region
	started bool
}

// New builds the clock (speedup must be positive), the cellular network and
// the controller; cc's Clock and Cell are filled in.
func New(speedup float64, cell simnet.CellularConfig, cc controller.Config) *Deployment {
	d := &Deployment{Clock: clock.NewScaled(speedup)}
	d.Cell = simnet.NewCellular(d.Clock, cell)
	cc.Clock, cc.Cell = d.Clock, d.Cell
	d.Ctrl = controller.New(cc)
	return d
}

// AddRegion builds a region on the deployment's clock and cellular network,
// reporting to its controller, and registers it with the controller. The
// caller's Clock, Cell, ControllerID and PreserveBroadcast are overwritten:
// source logs are broadcast region-wide exactly when the scheme preserves at
// sources (MobiStreams). Regions are added before Start: the controller
// launches its per-region loops once, at Start, so a later region would
// never be pinged or checkpointed, and AddRegion returns an error instead.
func (d *Deployment) AddRegion(rc region.Config) (*region.Region, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return nil, errors.New("deploy: region added after Start")
	}
	rc.Clock, rc.Cell, rc.ControllerID = d.Clock, d.Cell, d.Ctrl.ID()
	rc.PreserveBroadcast = rc.Scheme.PreservesAtSources()
	r, err := region.New(rc)
	if err != nil {
		return nil, err
	}
	d.Ctrl.AddRegion(r)
	d.regions = append(d.regions, r)
	return r, nil
}

// Start starts every region, then the controller. Later calls do nothing.
func (d *Deployment) Start() {
	d.mu.Lock()
	started := d.started
	d.started = true
	d.mu.Unlock()
	if started {
		return
	}
	// Once started, AddRegion no longer appends to d.regions.
	for _, r := range d.regions {
		r.Start()
	}
	d.Ctrl.Start()
}

// Stop stops the controller, then every region: a controller still running
// would ping the stopped phones, note them failed and plan recoveries
// against regions that are gone. Once stopped, the controller refuses the
// nodes' reports at once, so none can hold up a region's Stop.
func (d *Deployment) Stop() {
	d.Ctrl.Stop()
	d.mu.Lock()
	regions := d.regions
	d.mu.Unlock()
	for _, r := range regions {
		r.Stop()
	}
}
