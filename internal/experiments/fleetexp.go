package experiments

import (
	"fmt"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// fleetConfig scales the fleet for quick or full runs.
func fleetConfig(seed int64, quick bool) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	if quick {
		cfg.InitialTables = 400
		cfg.TablesPerMonth = 40
	}
	return cfg
}

// topK and budgetGBHr name the two selectors the fleet experiments use.
func topK(k int) *policy.Component {
	return &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(k)}}
}

func budgetGBHr(gbhr float64) *policy.Component {
	return &policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": gbhr}}
}

// dataService builds the §7 production pipeline over f — the
// quota-adaptive data-compaction spec — under the given selector.
func dataService(f *fleet.Fleet, model fleet.CompactionModel, selector *policy.Component) (*core.Service, error) {
	spec := policy.DefaultDataSpec(true)
	spec.Selector = selector
	ss, err := f.ServiceFromSpec(spec, model, fleet.SpecRunOptions{})
	if err != nil {
		return nil, err
	}
	return ss.Svc, nil
}

// --- Figure 2: fleet file-size distribution across regimes ---

// Fig2Result reproduces Figure 2: the fleet's file-size distribution
// before compaction, after months of manual compaction, and after
// AutoComp — plus the small-file fractions the paper quotes (83% of
// files <128 MB before; 62% after manual; auto-compaction reduced the
// number of <128 MB files by up to 44%).
type Fig2Result struct {
	Before, AfterManual, AfterAuto [3]int64

	TinyFracBefore float64
	TinyFracManual float64
	TinyFracAuto   float64
	// TinyReductionPct is the percentage drop in the *count* of <128 MB
	// files from the pre-compaction peak to the auto-compaction regime.
	TinyReductionPct float64
}

// ID implements Result.
func (Fig2Result) ID() string { return "fig2" }

// Title implements Result.
func (Fig2Result) Title() string {
	return "Figure 2: file size distribution before/after manual and auto compaction"
}

// Render implements Result.
func (r Fig2Result) Render() string {
	frac := func(h [3]int64, b int) string {
		t := h[0] + h[1] + h[2]
		if t == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(h[b])/float64(t))
	}
	rows := [][]string{
		{"<128MB", frac(r.Before, 0), frac(r.AfterManual, 0), frac(r.AfterAuto, 0)},
		{"[128MB,512MB)", frac(r.Before, 1), frac(r.AfterManual, 1), frac(r.AfterAuto, 1)},
		{">=512MB", frac(r.Before, 2), frac(r.AfterManual, 2), frac(r.AfterAuto, 2)},
	}
	body := metrics.RenderTable([]string{"Bucket", "Before", "+Manual", "+AutoComp"}, rows)
	body += fmt.Sprintf("\nfiles <128MB reduced by %.0f%% vs pre-compaction (paper: up to 44%%)\n",
		r.TinyReductionPct)
	return body
}

// RunFig2 ages a fleet with no compaction, then months of daily manual
// top-100 compaction, then AutoComp with a compute budget.
func RunFig2(seed int64, quick bool) (Result, error) {
	clock := sim.NewClock()
	f := fleet.New(fleetConfig(seed, quick), clock)
	model := fleet.DefaultModel(512 * storage.MB)
	runner := fleet.Runner{Fleet: f, Model: model}

	days := func(n int, step func()) {
		for i := 0; i < n; i++ {
			f.AdvanceDay()
			if step != nil {
				step()
			}
		}
	}

	// Two months unmanaged.
	days(60, nil)
	res := Fig2Result{Before: f.Histogram(), TinyFracBefore: f.TinyFileFraction()}
	tinyBefore := res.Before[0]

	// Two months of daily manual compaction over a fixed susceptible
	// set (§7).
	manualSet := f.MostFragmented(100)
	days(60, func() { runner.CompactTables(manualSet) })
	res.AfterManual = f.Histogram()
	res.TinyFracManual = f.TinyFileFraction()

	// Two months of AutoComp under a daily budget (dynamic k).
	svc, err := dataService(f, model, budgetGBHr(226*1024))
	if err != nil {
		return nil, err
	}
	days(60, func() {
		if _, err := svc.RunOnce(); err != nil {
			panic(err)
		}
	})
	res.AfterAuto = f.Histogram()
	res.TinyFracAuto = f.TinyFileFraction()
	if tinyBefore > 0 {
		res.TinyReductionPct = 100 * float64(tinyBefore-res.AfterAuto[0]) / float64(tinyBefore)
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "fig2", Title: Fig2Result{}.Title(), Run: RunFig2})
}

// --- Figure 10a: manual vs auto compaction ---

// WeekStat is one week of fleet compaction activity.
type WeekStat struct {
	Week         int
	Regime       string
	FilesReduced int64
	TBHr         float64
	MeanK        float64
}

// Fig10aResult compares manual k=100 (weeks 0–2) against AutoComp top-10
// (weeks 3–5): the paper measured 6.59M files reduced per run manually
// vs 7.44M automatically (+12%) despite compacting 10× fewer tables.
type Fig10aResult struct {
	Weeks []WeekStat
	// ManualMeanFiles and AutoMeanFiles are per-week means per regime.
	ManualMeanFiles float64
	AutoMeanFiles   float64
	ManualMeanTBHr  float64
	AutoMeanTBHr    float64
}

// ID implements Result.
func (Fig10aResult) ID() string { return "fig10a" }

// Title implements Result.
func (Fig10aResult) Title() string {
	return "Figure 10a: files reduced and computation cost, manual k=100 → auto k=10"
}

// Render implements Result.
func (r Fig10aResult) Render() string {
	var rows [][]string
	for _, w := range r.Weeks {
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Week), w.Regime,
			fmt.Sprintf("%d", w.FilesReduced),
			fmt.Sprintf("%.1f", w.TBHr),
			fmt.Sprintf("%.0f", w.MeanK),
		})
	}
	body := metrics.RenderTable([]string{"Week", "Regime", "Files reduced", "App TBHr", "k"}, rows)
	gain := 0.0
	if r.ManualMeanFiles > 0 {
		gain = 100 * (r.AutoMeanFiles - r.ManualMeanFiles) / r.ManualMeanFiles
	}
	body += fmt.Sprintf("\nauto top-10 vs manual top-100: %+.0f%% files reduced per week (paper: +12%%)\n", gain)
	return body
}

// RunFig10a runs three weeks of each regime.
func RunFig10a(seed int64, quick bool) (Result, error) {
	clock := sim.NewClock()
	cfg := fleetConfig(seed, quick)
	// The manual set must be a small slice of the fleet, as in
	// production (100 of 21K+ tables), for its diminishing returns to
	// show against fleet-wide automatic selection.
	if cfg.InitialTables < 1200 {
		cfg.InitialTables = 1200
	}
	f := fleet.New(cfg, clock)
	model := fleet.DefaultModel(512 * storage.MB)
	runner := fleet.Runner{Fleet: f, Model: model}

	// Burn-in so manual compaction's fixed set is already partly healed
	// (the diminishing-returns state of §2/§7).
	manualSet := f.MostFragmented(100)
	for d := 0; d < 21; d++ {
		f.AdvanceDay()
		runner.CompactTables(manualSet)
	}

	res := Fig10aResult{}
	for w := 0; w < 3; w++ {
		var files int64
		var gbhr float64
		for d := 0; d < 7; d++ {
			f.AdvanceDay()
			fr, g := runner.CompactTables(manualSet)
			files += fr
			gbhr += g
		}
		res.Weeks = append(res.Weeks, WeekStat{
			Week: w + 1, Regime: "manual k=100",
			FilesReduced: files, TBHr: gbhr / 1024, MeanK: 100,
		})
		res.ManualMeanFiles += float64(files) / 3
		res.ManualMeanTBHr += gbhr / 1024 / 3
	}

	svc, err := dataService(f, model, topK(10))
	if err != nil {
		return nil, err
	}
	for w := 3; w < 6; w++ {
		var files int64
		var gbhr float64
		for d := 0; d < 7; d++ {
			f.AdvanceDay()
			rep, err := svc.RunOnce()
			if err != nil {
				return nil, err
			}
			files += int64(rep.FilesReduced)
			gbhr += rep.ActualGBHr
		}
		res.Weeks = append(res.Weeks, WeekStat{
			Week: w + 1, Regime: "auto k=10",
			FilesReduced: files, TBHr: gbhr / 1024, MeanK: 10,
		})
		res.AutoMeanFiles += float64(files) / 3
		res.AutoMeanTBHr += gbhr / 1024 / 3
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "fig10a", Title: Fig10aResult{}.Title(), Run: RunFig10a})
}

// --- Figure 10b: static k vs dynamic (budget) k ---

// Fig10bResult shows the week-22 transition from static k=100 to
// budget-constrained dynamic k (226 TBHr ⇒ k≈2500 in the paper).
type Fig10bResult struct {
	Weeks []WeekStat
}

// ID implements Result.
func (Fig10bResult) ID() string { return "fig10b" }

// Title implements Result.
func (Fig10bResult) Title() string {
	return "Figure 10b: impact of dynamic k tuning (budget 226 TBHr)"
}

// Render implements Result.
func (r Fig10bResult) Render() string {
	var rows [][]string
	for _, w := range r.Weeks {
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Week), w.Regime,
			fmt.Sprintf("%d", w.FilesReduced),
			fmt.Sprintf("%.1f", w.TBHr),
			fmt.Sprintf("%.0f", w.MeanK),
		})
	}
	return metrics.RenderTable([]string{"Week", "Regime", "Files reduced", "App TBHr", "k"}, rows)
}

// RunFig10b ages a fleet, runs static top-100 for two weeks, then the
// 226 TBHr budget selector for two weeks.
func RunFig10b(seed int64, quick bool) (Result, error) {
	clock := sim.NewClock()
	cfg := fleetConfig(seed, quick)
	// Static k=100 must be a small slice of the fleet (as with the 35K
	// production deployment) so that a backlog persists for dynamic k
	// to flush at the week-22 transition.
	if cfg.InitialTables < 2000 {
		cfg.InitialTables = 2000
	}
	f := fleet.New(cfg, clock)
	model := fleet.DefaultModel(512 * storage.MB)

	// Age to "week 21" with static auto-compaction running.
	staticSvc, err := dataService(f, model, topK(100))
	if err != nil {
		return nil, err
	}
	ageDays := 21 * 7
	if quick {
		ageDays = 5 * 7
	}
	for d := 0; d < ageDays; d++ {
		f.AdvanceDay()
		if _, err := staticSvc.RunOnce(); err != nil {
			return nil, err
		}
	}

	res := Fig10bResult{}
	week := 21
	runWeek := func(svc *core.Service, regime string) error {
		week++
		var files int64
		var gbhr, ks float64
		for d := 0; d < 7; d++ {
			f.AdvanceDay()
			rep, err := svc.RunOnce()
			if err != nil {
				return err
			}
			files += int64(rep.FilesReduced)
			gbhr += rep.ActualGBHr
			ks += float64(len(rep.Decision.Selected))
		}
		res.Weeks = append(res.Weeks, WeekStat{
			Week: week, Regime: regime, FilesReduced: files,
			TBHr: gbhr / 1024, MeanK: ks / 7,
		})
		return nil
	}
	if err := runWeek(staticSvc, "static k=100"); err != nil {
		return nil, err
	}
	budgetSvc, err := dataService(f, model, budgetGBHr(226*1024))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if err := runWeek(budgetSvc, "dynamic k (226 TBHr)"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// DynamicKExceedsStatic reports whether the dynamic regime selected more
// candidates per run than the static one.
func (r Fig10bResult) DynamicKExceedsStatic() bool {
	return len(r.Weeks) >= 2 && r.Weeks[len(r.Weeks)-1].MeanK > r.Weeks[0].MeanK
}

func init() {
	register(Spec{ExpID: "fig10b", Title: Fig10bResult{}.Title(), Run: RunFig10b})
}

// --- Figure 10c: deployment growth vs file count ---

// MonthStat is one month of deployment statistics.
type MonthStat struct {
	Month     int
	Tables    int
	Files     int64
	OpenCalls int64
	Regime    string
}

// Fig10cResult tracks 12 months of deployment growth: file count climbs
// until manual compaction lands (month 4) and drops again when
// auto-compaction rolls out (month 9), despite the deployment growing.
type Fig10cResult struct {
	Months []MonthStat
}

// ID implements Result.
func (Fig10cResult) ID() string { return "fig10c" }

// Title implements Result.
func (Fig10cResult) Title() string {
	return "Figure 10c: deployment statistics (size vs file count over 12 months)"
}

// Render implements Result.
func (r Fig10cResult) Render() string {
	var rows [][]string
	for _, m := range r.Months {
		rows = append(rows, []string{
			fmt.Sprintf("%d", m.Month), m.Regime,
			fmt.Sprintf("%d", m.Tables),
			fmt.Sprintf("%d", m.Files),
		})
	}
	return metrics.RenderTable([]string{"Month", "Regime", "Tables", "Files"}, rows)
}

// runFleetTimeline ages a fleet through the paper's three regimes and
// returns monthly stats; shared by Fig 10c and Fig 11b.
func runFleetTimeline(seed int64, quick bool, months int) (*Fig10cResult, []MonthStat, error) {
	clock := sim.NewClock()
	f := fleet.New(fleetConfig(seed, quick), clock)
	model := fleet.DefaultModel(512 * storage.MB)
	runner := fleet.Runner{Fleet: f, Model: model}

	res := &Fig10cResult{}
	var manualSet []*fleet.Table
	var svc *core.Service
	var openPerMonth []MonthStat
	prevOpens := int64(0)

	for m := 1; m <= months; m++ {
		regime := "none"
		switch {
		case m >= 9:
			regime = "auto"
		case m >= 4:
			regime = "manual"
		}
		if regime == "manual" && manualSet == nil {
			manualSet = f.MostFragmented(100)
		}
		if regime == "auto" && svc == nil {
			s, err := dataService(f, model, budgetGBHr(226*1024))
			if err != nil {
				return nil, nil, err
			}
			svc = s
		}
		for d := 0; d < 30; d++ {
			f.AdvanceDay()
			f.RunDailyScans()
			switch regime {
			case "manual":
				runner.CompactTables(manualSet)
			case "auto":
				if _, err := svc.RunOnce(); err != nil {
					return nil, nil, err
				}
			}
		}
		stat := MonthStat{
			Month:  m,
			Tables: f.TableCount(),
			Files:  f.TotalFiles(),
			Regime: regime,
		}
		res.Months = append(res.Months, stat)
		opens := f.OpenCalls()
		openPerMonth = append(openPerMonth, MonthStat{
			Month: m, Tables: f.TableCount(), Regime: regime,
			OpenCalls: opens - prevOpens,
		})
		prevOpens = opens
	}
	return res, openPerMonth, nil
}

// RunFig10c runs the 12-month timeline.
func RunFig10c(seed int64, quick bool) (Result, error) {
	res, _, err := runFleetTimeline(seed, quick, 12)
	return *res, err
}

func init() {
	register(Spec{ExpID: "fig10c", Title: Fig10cResult{}.Title(), Run: RunFig10c})
}

// --- Figure 11a: workload metrics sawtooth ---

// DayStat is one day of the scan-heavy workload under daily AutoComp.
type DayStat struct {
	Day          int
	FilesScanned int64
	QueryTime    float64
	QueryCost    float64
	FilesReduced int64
}

// Fig11aResult is the 30-day series of Figure 11a: files scanned, query
// time, and query cost track compaction activity, with a sawtooth as
// unselected tables regrow.
type Fig11aResult struct {
	Days []DayStat
}

// ID implements Result.
func (Fig11aResult) ID() string { return "fig11a" }

// Title implements Result.
func (Fig11aResult) Title() string {
	return "Figure 11a: key workload metrics over 30 days (smoothed, normalized)"
}

// Render implements Result.
func (r Fig11aResult) Render() string {
	// Normalize + EMA-smooth each series like the paper's plot.
	mk := func(get func(DayStat) float64, name string) *metrics.TimeSeries {
		s := metrics.NewTimeSeries(name)
		for _, d := range r.Days {
			s.Add(time.Duration(d.Day)*24*time.Hour, get(d))
		}
		return s.SmoothedEMA(0.4).Normalized()
	}
	scanned := mk(func(d DayStat) float64 { return float64(d.FilesScanned) }, "scanned")
	qtime := mk(func(d DayStat) float64 { return d.QueryTime }, "time")
	qcost := mk(func(d DayStat) float64 { return d.QueryCost }, "cost")
	reduced := mk(func(d DayStat) float64 { return float64(d.FilesReduced) }, "reduced")
	var rows [][]string
	for i := range r.Days {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Days[i].Day),
			fmt.Sprintf("%.3f", scanned.Points[i].V),
			fmt.Sprintf("%.3f", qtime.Points[i].V),
			fmt.Sprintf("%.3f", qcost.Points[i].V),
			fmt.Sprintf("%.3f", reduced.Points[i].V),
		})
	}
	return metrics.RenderTable(
		[]string{"Day", "Files scanned", "Query time", "Query cost", "Files reduced"}, rows)
}

// RunFig11a runs 30 days of daily scans plus daily top-k AutoComp.
func RunFig11a(seed int64, quick bool) (Result, error) {
	clock := sim.NewClock()
	f := fleet.New(fleetConfig(seed, quick), clock)
	model := fleet.DefaultModel(512 * storage.MB)
	// k is deliberately smaller than the fragmented population so
	// unselected tables regrow between selections (the sawtooth).
	svc, err := dataService(f, model, topK(40))
	if err != nil {
		return nil, err
	}
	res := Fig11aResult{}
	for d := 1; d <= 30; d++ {
		f.AdvanceDay()
		scan := f.RunDailyScans()
		rep, err := svc.RunOnce()
		if err != nil {
			return nil, err
		}
		res.Days = append(res.Days, DayStat{
			Day:          d,
			FilesScanned: scan.FilesScanned,
			QueryTime:    scan.QueryTime.Seconds(),
			QueryCost:    scan.QueryCost,
			FilesReduced: int64(rep.FilesReduced),
		})
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "fig11a", Title: Fig11aResult{}.Title(), Run: RunFig11a})
}

// --- Figure 11b: HDFS open() calls ---

// Fig11bResult tracks monthly HDFS open() volume across the compaction
// regimes: manual (month 4) and auto (month 9) cut file-open traffic
// even as the deployment grows.
type Fig11bResult struct {
	Months []MonthStat
}

// ID implements Result.
func (Fig11bResult) ID() string { return "fig11b" }

// Title implements Result.
func (Fig11bResult) Title() string {
	return "Figure 11b: HDFS filesystem open() operations over 14 months"
}

// Render implements Result.
func (r Fig11bResult) Render() string {
	var rows [][]string
	for _, m := range r.Months {
		rows = append(rows, []string{
			fmt.Sprintf("%d", m.Month), m.Regime,
			fmt.Sprintf("%d", m.Tables),
			fmt.Sprintf("%d", m.OpenCalls),
		})
	}
	return metrics.RenderTable([]string{"Month", "Regime", "Tables", "open() calls"}, rows)
}

// RunFig11b runs the 14-month timeline and projects open() deltas.
func RunFig11b(seed int64, quick bool) (Result, error) {
	_, opens, err := runFleetTimeline(seed, quick, 14)
	if err != nil {
		return nil, err
	}
	return Fig11bResult{Months: opens}, nil
}

func init() {
	register(Spec{ExpID: "fig11b", Title: Fig11bResult{}.Title(), Run: RunFig11b})
}
