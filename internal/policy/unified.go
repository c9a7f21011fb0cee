package policy

// Policy unification: one replacement-policy interface, cache.Policy, drives
// both the discrete-event simulator (memhier levels) and the production
// tiers (store.MemCache in DRAM, tier.Tier on SSD), each through a
// cache.Level, and the paper's application-aware replacement is one of its
// implementations (ImportanceLRU), so an ablation validated in the simulator
// runs unchanged against live traffic, and vice versa. The parity test in
// internal/tier pins that the same trace produces identical hit/evict
// decisions through every host of the level.

import (
	"repro/internal/cache"
	"repro/internal/grid"
)

// ImportanceLRU is the paper's T_important scoring as a standalone
// replacement policy: blocks whose importance score is at or below σ are
// evicted before any block above it, LRU within each class. It is the
// per-tier distillation of Algorithm 1's rule that high-entropy blocks stay
// resident — applied where the full controller's view-point clock is not
// available (the production tiers serve concurrent sessions with no single
// frame counter). Not safe for concurrent use; callers serialize, exactly
// as with the package cache baselines.
type ImportanceLRU struct {
	score func(grid.BlockID) float64
	sigma float64
	cold  *cache.LRU // score <= sigma: first to go
	hot   *cache.LRU // score > sigma: protected until no cold block remains
}

// NewImportanceLRU builds the policy from a score function (typically
// entropy.Table.Score) and the threshold σ. The score function must be
// deterministic for a given id; it is consulted on every Insert.
func NewImportanceLRU(score func(grid.BlockID) float64, sigma float64) *ImportanceLRU {
	return &ImportanceLRU{
		score: score,
		sigma: sigma,
		cold:  cache.NewLRU(),
		hot:   cache.NewLRU(),
	}
}

// class returns the list the block belongs to.
func (p *ImportanceLRU) class(id grid.BlockID) *cache.LRU {
	if p.score(id) > p.sigma {
		return p.hot
	}
	return p.cold
}

// Name implements cache.Policy.
func (*ImportanceLRU) Name() string { return "ImportanceLRU" }

// Insert implements cache.Policy.
func (p *ImportanceLRU) Insert(id grid.BlockID) { p.class(id).Insert(id) }

// Touch implements cache.Policy.
func (p *ImportanceLRU) Touch(id grid.BlockID) { p.class(id).Touch(id) }

// Remove implements cache.Policy.
func (p *ImportanceLRU) Remove(id grid.BlockID) {
	p.cold.Remove(id)
	p.hot.Remove(id)
}

// Victim implements cache.Policy: the least-recently-used allowed cold
// block first; only when no cold block qualifies is a hot block sacrificed.
// Both classes get the level's filter as it came, generation and all, so
// each keeps its own cursor under it.
func (p *ImportanceLRU) Victim(incoming grid.BlockID, allowed cache.Filter) (grid.BlockID, bool) {
	if id, ok := p.cold.Victim(incoming, allowed); ok {
		return id, true
	}
	return p.hot.Victim(incoming, allowed)
}
