package report

import (
	"fmt"

	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/pipeline"
)

// Experiment is one of the paper's tables, figures or sections as this
// reproduction regenerates it: a name to select it by and the text it
// renders from a built dataset.
type Experiment struct {
	Name   string
	Render func(ds *pipeline.Dataset) string
}

// Experiments is every experiment, in the order `parallellives run`
// prints them — the one list its -experiments flag selects from, its
// usage text names, and EXPERIMENTS.md is written against.
var Experiments = []Experiment{
	{"table1", func(ds *pipeline.Dataset) string { return BuildTable1(ds.FileCounts).Text() }},
	{"figure3", func(ds *pipeline.Dataset) string {
		return BuildFigure3(ds.Activity, ds.Admin,
			[]int{1, 2, 5, 10, 15, 20, 30, 50, 75, 100, 150, 365}, ds.Options.Timeout).Text()
	}},
	{"figure4", func(ds *pipeline.Dataset) string {
		start, end := ds.Window()
		return BuildFigure4(ds.Joint, start, end, 180).Text()
	}},
	{"table2", func(ds *pipeline.Dataset) string { return BuildTable2(ds.Joint).Text() }},
	{"figure5", func(ds *pipeline.Dataset) string { return BuildFigure5(ds.Admin).Text() }},
	{"table3", func(ds *pipeline.Dataset) string { return BuildTable3(ds.Joint).Text() }},
	{"figure7", func(ds *pipeline.Dataset) string { return BuildFigure7(ds.Joint).Text() }},
	{"figure8", func(ds *pipeline.Dataset) string {
		findings := ds.Joint.DetectDormantSquats(core.DefaultSquatParams())
		start, end := ds.Window()
		return BuildFigure8(ds.Joint, findings, 6, 30, start, end).Text()
	}},
	{"figure9", func(ds *pipeline.Dataset) string { return BuildFigure9(ds.Joint.Unused()).Text() }},
	{"figure10", func(ds *pipeline.Dataset) string { return BuildFigure10(ds.Admin).Text() }},
	{"figure11", func(ds *pipeline.Dataset) string {
		start, end := ds.Window()
		return BuildFigure11(ds.Admin, start, end).Text()
	}},
	{"figure12", func(ds *pipeline.Dataset) string {
		start, end := ds.Window()
		return BuildFigure12(ds.Restored, start, end, 180).Text()
	}},
	{"figure14", func(ds *pipeline.Dataset) string {
		start, end := ds.Window()
		return BuildFigure14(ds.Admin, start.Year(), end.Year()).Text()
	}},
	{"table4", func(ds *pipeline.Dataset) string {
		snaps := table4Snapshots(ds.Window())
		return BuildTable4(ds.Joint, snaps, 5).Text()
	}},
	{"table5", func(ds *pipeline.Dataset) string {
		return BuildTable5(ds.Admin, ds.Activity, []int{15, 30, 50}, 30).Text()
	}},
	{"s61", func(ds *pipeline.Dataset) string {
		_, end := ds.Window()
		return BuildSection61(ds.Joint, end, core.DefaultSquatParams()).Text()
	}},
	{"s62", func(ds *pipeline.Dataset) string { return BuildSection62(ds.Joint, ds.Truth).Text() }},
	{"s63", func(ds *pipeline.Dataset) string { return BuildSection63(ds.Joint).Text() }},
	{"s64", func(ds *pipeline.Dataset) string { return BuildSection64(ds.Joint).Text() }},
	{"appendixa", func(ds *pipeline.Dataset) string {
		start, end := ds.Window()
		return BuildAppendixA16Bit(ds.Restored, start, end).Text()
	}},
	{"extensions", func(ds *pipeline.Dataset) string { return BuildExtensions(ds.Activity, ds.Ops).Text() }},
	{"restoration", func(ds *pipeline.Dataset) string {
		return fmt.Sprintf("Restoration report: %+v\n", ds.Restored.Report)
	}},
	{"health", func(ds *pipeline.Dataset) string { return ds.Health.Text() }},
}

// table4Snapshots picks the paper's 2010/2015/2021 snapshots when they
// fall inside the window, else three evenly spaced dates.
func table4Snapshots(start, end dates.Day) []dates.Day {
	paper := []dates.Day{
		dates.MustParse("2010-01-01"),
		dates.MustParse("2015-01-01"),
		dates.MustParse("2021-03-01"),
	}
	var out []dates.Day
	for _, d := range paper {
		if d >= start && d <= end {
			out = append(out, d)
		}
	}
	if len(out) >= 2 {
		return out
	}
	span := end.Sub(start)
	return []dates.Day{start.AddDays(span / 3), start.AddDays(2 * span / 3), end}
}
