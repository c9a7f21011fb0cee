package policy

// Policy unification: one replacement-policy interface drives both the
// discrete-event simulator (memhier levels) and the production tiers
// (store.MemCache in DRAM, tier.Tier on SSD), each through a cache.Level.
// The interface itself is cache.Policy — re-exported here as Replacement so
// callers wire tiers against the policy layer, not the baseline zoo — and
// the paper's application-aware replacement is available as a Replacement
// implementation (ImportanceLRU), so an ablation validated in the simulator
// runs unchanged against live traffic, and vice versa. The parity test in
// internal/tier pins that the same trace produces identical hit/evict
// decisions through every host of the level.

import (
	"repro/internal/cache"
	"repro/internal/grid"
)

// Replacement is the single replacement-policy interface every tier evicts
// through: simulator levels (memhier.LevelConfig.Policy), the in-memory
// production cache (store.NewMemCache), and the persistent spill tier
// (tier.Config.Policy) all accept one.
type Replacement = cache.Policy

// Factory constructs a fresh Replacement; hierarchies need one per level.
type Factory = cache.Factory

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

// Name implements Replacement.
func (*ImportanceLRU) Name() string { return "ImportanceLRU" }

// Insert implements Replacement.
func (p *ImportanceLRU) Insert(id grid.BlockID) { p.class(id).Insert(id) }

// Touch implements Replacement.
func (p *ImportanceLRU) Touch(id grid.BlockID) { p.class(id).Touch(id) }

// Remove implements Replacement.
func (p *ImportanceLRU) Remove(id grid.BlockID) {
	p.cold.Remove(id)
	p.hot.Remove(id)
}

// Victim implements Replacement: least-recently-used cold block first; only
// when no cold block remains is a hot block sacrificed.
func (p *ImportanceLRU) Victim() (grid.BlockID, bool) {
	if id, ok := p.cold.Victim(); ok {
		return id, true
	}
	return p.hot.Victim()
}

// VictimWhere implements Replacement, scanning cold then hot in eviction
// order.
func (p *ImportanceLRU) VictimWhere(allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	if id, ok := p.cold.VictimWhere(allowed); ok {
		return id, true
	}
	return p.hot.VictimWhere(allowed)
}

// Contains implements Replacement.
func (p *ImportanceLRU) Contains(id grid.BlockID) bool {
	return p.cold.Contains(id) || p.hot.Contains(id)
}

// Len implements Replacement.
func (p *ImportanceLRU) Len() int { return p.cold.Len() + p.hot.Len() }
