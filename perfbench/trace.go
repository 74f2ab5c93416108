package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share a Trace id; Parent is the enclosing span (0 = none).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced rounds pass nil through the same code.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open is an unfinished span.
type open struct {
	id, parent, trace int64
	name              string
	start             time.Time
}

// begin opens a span under parent (the zero open for a root span, which
// starts a new trace).
func (l *spanLog) begin(name string, parent open) open {
	if l == nil {
		return open{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return open{id: id, parent: parent.id, trace: trace, name: name, start: time.Now()}
}

// end closes o.
func (l *spanLog) end(o open) {
	if l == nil || o.id == 0 {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Trace: o.trace, Name: o.name,
		Start: o.start.Sub(l.t0), End: time.Since(l.t0)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summary aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover (children may overlap each
// other when they run on a pool, so their union is subtracted).
func (l *spanLog) summary() []spanStat {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]spanStat, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON in dir/name.
func (l *spanLog) write(dir, name string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// moduleProfile sums CPU-profile sample values (nanoseconds) by module,
// two ways. self charges each sample to the module of its leaf frame, so
// runtime work (allocation, zeroing, GC) and math/rand count as "other".
// charged charges it to the leaf-most frame that belongs to a profiled
// module, so runtime and library work counts against the module that
// called it; only samples with no such frame (GC workers, idle) are
// "other".
type moduleProfile struct {
	self, charged map[string]float64
}

func newModuleProfile() moduleProfile {
	return moduleProfile{self: map[string]float64{}, charged: map[string]float64{}}
}

// moduleOf maps a function name to its profiled module: the package
// under repro/internal/, "http" for net/http, "other" for the rest.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, m := range profiledModules {
			if m == mod {
				return mod
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") {
		return "http"
	}
	return "other"
}

// fractions returns each profiled module's share of all samples in by;
// the shares sum to 1. Modules without samples report 0.
func fractions(by map[string]float64) map[string]float64 {
	var total float64
	for _, v := range by {
		total += v
	}
	out := map[string]float64{}
	for _, m := range profiledModules {
		if total > 0 {
			out[m] = by[m] / total
		}
	}
	return out
}

// addProfile decodes a gzipped pprof CPU profile and adds each sample's
// CPU time to its modules (see moduleProfile). An empty profile adds
// nothing.
func (p moduleProfile) addProfile(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		vi := prof.valueIndex
		if vi >= len(s.values) {
			vi = len(s.values) - 1
		}
		v := float64(s.values[vi])
		frames := prof.frames(s)
		p.self[moduleOf(frames[0])] += v
		charged := "other"
		for _, fn := range frames {
			if m := moduleOf(fn); m != "other" {
				charged = m
				break
			}
		}
		p.charged[charged] += v
	}
	return nil
}

// pprofProfile holds the parts of a profile.proto message the benchmark
// needs: samples, the functions of each location, and function names.
type pprofProfile struct {
	sampleTypes []int64 // string-table index of each sample type's "type"
	samples     []pprofSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strings     []string
	valueIndex  int
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// frames returns the function names of a sample's stack, leaf first,
// inlined functions included. It never returns an empty slice.
func (p *pprofProfile) frames(s pprofSample) []string {
	out := []string{}
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			name := ""
			if idx, ok := p.funcNames[fn]; ok && idx >= 0 && int(idx) < len(p.strings) {
				name = p.strings[idx]
			}
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		out = append(out, "")
	}
	return out
}

var errProto = errors.New("malformed protobuf")

// pbWalk calls fn for each field of a protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func pbWalk(msg []byte, fn func(field int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts appends a repeated integer field, packed or not.
func pbInts(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses the profile.proto fields: sample_type (1),
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := pbWalk(raw, func(field, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // ValueType{type=1, unit=2}
			var typ int64
			err := pbWalk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // Sample{location_id=1, value=2}
			var s pprofSample
			err := pbWalk(b, func(f, w int, v uint64, bb []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = pbInts(s.locs, w, v, bb)
				case 2:
					var vals []uint64
					vals, err = pbInts(nil, w, v, bb)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4 (Line{function_id=1})}, innermost line first
			var id uint64
			var fns []uint64
			err := pbWalk(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbWalk(bb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			err := pbWalk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Use the "cpu" sample type (nanoseconds); fall back to the last one.
	p.valueIndex = len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		p.valueIndex = 0
	}
	return p, nil
}
