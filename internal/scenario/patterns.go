package scenario

import (
	"fmt"

	"autocomp/internal/fleet"
	"autocomp/internal/sim"
)

// pattern is one compiled temporal write pattern. apply runs at most
// once per simulated day, after the fleet's organic growth and before
// the day's observe→decide→act cycle, and tallies its commits in inj.
type pattern interface {
	apply(f *fleet.Fleet, inj *Injection, day int)
}

// buildPatterns compiles the scenario's workload section. Each pattern
// draws from its own child stream labeled by position and kind, so
// reordering-independent determinism holds: adding pattern N+1 never
// perturbs the draws of patterns 1..N.
func buildPatterns(s *Spec) []pattern {
	out := make([]pattern, 0, len(s.Workload))
	for i, ps := range s.Workload {
		rng := sim.Child(s.Seed, fmt.Sprintf("scenario/pattern/%d/%s", i, ps.Kind))
		switch ps.Kind {
		case KindSteady:
			out = append(out, steadyPattern{})
		case KindBurst:
			out = append(out, &burstPattern{spec: withPatternDefaults(ps, s.Days), rng: rng})
		case KindBackfill:
			out = append(out, &backfillPattern{spec: withPatternDefaults(ps, s.Days), rng: rng})
		case KindHotSkew:
			out = append(out, &hotSkewPattern{spec: withPatternDefaults(ps, s.Days)})
		}
	}
	return out
}

// withPatternDefaults fills a pattern's zero-valued knobs.
func withPatternDefaults(ps PatternSpec, days int) PatternSpec {
	if ps.FromDay == 0 {
		ps.FromDay = 1
	}
	if ps.ToDay == 0 {
		ps.ToDay = days
	}
	if ps.EveryDays == 0 {
		ps.EveryDays = 1
	}
	if ps.Commits == 0 {
		ps.Commits = 10
	}
	if ps.FilesPerCommit == 0 {
		ps.FilesPerCommit = 10
	}
	if ps.Tables == 0 {
		ps.Tables = 3
	}
	if ps.TablesFraction == 0 {
		ps.TablesFraction = 0.05
	}
	return ps
}

// steadyPattern adds nothing: the fleet's organic growth is the steady
// workload.
type steadyPattern struct{}

func (steadyPattern) apply(*fleet.Fleet, *Injection, int) {}

// burstPattern hits a random fraction of the fleet with a batch of
// writer commits on recurring days — the diurnal/batch-window burst
// shape.
type burstPattern struct {
	spec PatternSpec
	rng  *sim.RNG
}

func (p *burstPattern) apply(f *fleet.Fleet, inj *Injection, day int) {
	s := p.spec
	if day < s.FromDay || day > s.ToDay || (day-s.FromDay)%s.EveryDays != 0 {
		return
	}
	for _, t := range f.Tables() {
		if !p.rng.Bernoulli(s.TablesFraction) {
			continue
		}
		inj.commitStorm(t, s.Commits, s.FilesPerCommit)
	}
}

// backfillPattern is a one-day storm: every table of the target
// database (or the whole fleet) replays a heavy history.
type backfillPattern struct {
	spec PatternSpec
	rng  *sim.RNG
}

func (p *backfillPattern) apply(f *fleet.Fleet, inj *Injection, day int) {
	s := p.spec
	if day != s.Day {
		return
	}
	for _, t := range f.Tables() {
		if s.Database != "" && t.Database() != s.Database {
			continue
		}
		// Jitter the storm size per table so the backfill is lumpy the
		// way replayed history is.
		commits := int(p.rng.Jitter(float64(s.Commits), 0.3))
		if commits < 1 {
			commits = 1
		}
		inj.commitStorm(t, commits, s.FilesPerCommit)
	}
}

// hotSkewPattern concentrates daily extra commits on the currently most
// fragmented tables — hot tables stay hot, the skew that defeats
// uniform maintenance schedules. Table choice is deterministic (the
// fragmentation ranking), so this pattern needs no random stream.
type hotSkewPattern struct {
	spec PatternSpec
}

func (p *hotSkewPattern) apply(f *fleet.Fleet, inj *Injection, day int) {
	s := p.spec
	if day < s.FromDay || day > s.ToDay {
		return
	}
	for _, t := range f.MostFragmented(s.Tables) {
		inj.commitStorm(t, s.Commits, s.FilesPerCommit)
	}
}

// commitStorm lands commits writer commits of files small files each on
// t and accounts them in the day's injection counters.
func (inj *Injection) commitStorm(t *fleet.Table, commits, files int) {
	for i := 0; i < commits; i++ {
		t.WriterCommit(int64(files))
	}
	inj.Commits += int64(commits)
	inj.Files += int64(commits) * int64(files)
}
