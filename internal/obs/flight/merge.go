package flight

import (
	"fmt"
	"sort"
	"strings"
)

// Source is one process's flight dump (coordinator or node) in a merged
// cluster timeline. Name labels the rows it contributes; dumps carry their
// own source label in the header, which callers normally pass through here.
type Source struct {
	Name   string
	Events []Event
}

// mergedRow is one timeline line with its deterministic sort key. Anchor is
// the coordinator sequence number the row hangs off: coordinator events
// anchor to themselves; node events anchor to the coordinator's lease_grant
// for their lease, so causally dependent rows sort after their cause. Rows
// whose lease the coordinator never granted (partial dump sets) sink to the
// end.
type mergedRow struct {
	anchor uint64
	class  int // 0 coordinator event, 1 node event
	source string
	seq    uint64
	text   string
}

// MergeTimeline merges coordinator and node flight dumps into one causal
// timeline per trace ID, rendered as deterministic text:
// ordering is by sequence number and grant anchoring, never wall clock, so
// two identical cluster runs merge byte-identically. Measured quantities
// (vtime, durations) are elided unless withDurations is set — they are the
// only nondeterministic event fields (DESIGN §12).
func MergeTimeline(sources []Source, withDurations bool) string {
	// The coordinator is whichever source granted leases; its events anchor
	// everyone else's.
	grantSeq := make(map[string]uint64)
	coordName := ""
	for _, src := range sources {
		for _, ev := range src.Events {
			if ev.Kind == KindLeaseGrant && ev.Lease != "" {
				grantSeq[ev.Lease] = ev.Seq
				coordName = src.Name
			}
		}
	}

	const unanchored = ^uint64(0)
	byTrace := make(map[string][]mergedRow)
	for _, src := range sources {
		isCoord := src.Name == coordName && coordName != ""
		for _, ev := range src.Events {
			row := mergedRow{source: src.Name, seq: ev.Seq, text: formatEvent(ev, withDurations)}
			if isCoord {
				row.anchor, row.class = ev.Seq, 0
			} else {
				row.class = 1
				if a, ok := grantSeq[ev.Lease]; ok && ev.Lease != "" {
					row.anchor = a
				} else {
					row.anchor = unanchored
				}
			}
			byTrace[ev.Trace] = append(byTrace[ev.Trace], row)
		}
	}

	traces := make([]string, 0, len(byTrace))
	for tr := range byTrace {
		traces = append(traces, tr)
	}
	sort.Strings(traces)

	var b strings.Builder
	fmt.Fprintf(&b, "%s cluster timeline  sources=%d traces=%d\n", Schema, len(sources), len(traces))
	for _, tr := range traces {
		rows := byTrace[tr]
		sort.SliceStable(rows, func(i, j int) bool {
			a, c := rows[i], rows[j]
			if a.anchor != c.anchor {
				return a.anchor < c.anchor
			}
			if a.class != c.class {
				return a.class < c.class
			}
			if a.source != c.source {
				return a.source < c.source
			}
			return a.seq < c.seq
		})
		label := tr
		if label == "" {
			label = "(untraced)"
		}
		fmt.Fprintf(&b, "\ntrace %s\n", label)
		width := 0
		for _, r := range rows {
			if len(r.source) > width {
				width = len(r.source)
			}
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-*s %s\n", width, r.source, r.text)
		}
	}
	return b.String()
}

// formatEvent renders one event as a stable single line: kind first, then
// the set fields in fixed order.
func formatEvent(ev Event, withDurations bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-4d %s", ev.Seq, ev.Kind)
	add := func(k, v string) {
		if v != "" {
			fmt.Fprintf(&b, " %s=%s", k, v)
		}
	}
	add("tenant", ev.Tenant)
	add("job", ev.Job)
	add("lane", ev.Lane)
	add("reason", ev.Reason)
	add("lease", ev.Lease)
	add("node", ev.Node)
	if withDurations {
		if ev.VTime != 0 {
			fmt.Fprintf(&b, " vtime=%.6f", ev.VTime)
		}
		if ev.DurMS != 0 {
			fmt.Fprintf(&b, " dur_ms=%.3f", ev.DurMS)
		}
	}
	add("detail", ev.Detail)
	return b.String()
}
