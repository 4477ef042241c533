package serve

import "sync/atomic"

// Pool counts a service's decoder instances. There is no lending: each
// dispatch worker owns its decoder outright (see Service.worker), builds
// it on its first dispatch and keeps it until a fault quarantines it, so
// at most Size instances are live and no instance is ever shared.
// Decoders own their scratch and their returned vectors ("owned until
// next Decode", internal/README.md), so a result must still be copied
// out (see gf2.CopyVec) before the worker's next dispatch.
type Pool struct {
	size   int
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Size is the instance bound: the number of dispatch workers.
func (p *Pool) Size() int { return p.size }

// Hits counts dispatches served by the worker's existing decoder.
func (p *Pool) Hits() uint64 { return p.hits.Load() }

// Misses counts dispatches that constructed the worker's decoder: one
// per instance built.
func (p *Pool) Misses() uint64 { return p.misses.Load() }
