package ingress

import (
	"io"
	"sync"

	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// SensorProxy is the sophisticated ingress module of §2.1: besides reading
// a sensor network, it sends control messages back — adjusting the sample
// rate of the sensors based on the queries currently being processed
// [MF02]. Here the sensor network is the workload simulator; the control
// loop is real: registering a query demanding rate r raises the network's
// sample rate to the maximum demanded rate, and deregistering lowers it.
type SensorProxy struct {
	mu       sync.Mutex
	gen      *workload.SensorGenerator
	demands  map[int]int // query id -> demanded rate
	baseline int
	pending  []*tuple.Tuple
	closed   bool

	adjustments int
}

// NewSensorProxy wraps a sensor generator whose idle rate is baseline.
func NewSensorProxy(gen *workload.SensorGenerator, baseline int) *SensorProxy {
	gen.SampleRate = baseline
	return &SensorProxy{
		gen:      gen,
		demands:  make(map[int]int),
		baseline: baseline,
	}
}

// Demand registers query q's required sample rate; the proxy pushes the
// new effective rate into the sensor network.
func (p *SensorProxy) Demand(q, rate int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.demands[q] = rate
	p.retune()
}

// Release drops query q's demand.
func (p *SensorProxy) Release(q int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.demands, q)
	p.retune()
}

func (p *SensorProxy) retune() {
	rate := p.baseline
	for _, r := range p.demands {
		if r > rate {
			rate = r
		}
	}
	if p.gen.SampleRate != rate {
		p.gen.SampleRate = rate
		p.adjustments++
	}
}

// Rate returns the sensor network's current sample rate.
func (p *SensorProxy) Rate() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen.SampleRate
}

// Adjustments returns how many control messages were sent to the network.
func (p *SensorProxy) Adjustments() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.adjustments
}

// Next returns the next reading, draining the network tick by tick; the
// caller feeds it through the front door. io.EOF after Close.
func (p *SensorProxy) Next() (*tuple.Tuple, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, io.EOF
	}
	for len(p.pending) == 0 {
		p.pending = p.gen.Tick()
	}
	t := p.pending[0]
	p.pending = p.pending[1:]
	return t, nil
}

// Close ends the readings: Next returns io.EOF from then on.
func (p *SensorProxy) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return nil
}
