package farm

import (
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// workerRecords is the telemetry one batch's results carry from a worker
// to its master: the spans the worker finished for the batch, the
// warning+ flight-recorder events it emitted meanwhile, and its clock
// reading at descriptor receipt, which anchors both onto the master
// clock. The worker fills one per batch; the master decodes, shifts and
// ingests one per reply.
type workerRecords struct {
	spans  []telemetry.SpanRecord
	events []telemetry.Event
	recvAt float64
}

// On the wire the records are up to two extra hashes at the end of the
// result list, each told from a task result by its marker key and each
// carrying recvat: a span payload, shipped to peers that negotiated the
// spans capability, and an event payload, shipped to those that
// negotiated events. Names and field keys are interned; event fields
// flatten into parallel rows with a per-event count, so a payload is a
// handful of columns whatever the events look like.
const (
	recvAtKey = "recvat"
	namesKey  = "names"  // intern table: the distinct span or event names
	nameIxKey = "nameix" // per-row index into the name table
	tracesKey = "traces" // per-row trace ID

	spanMarker  = "__spans"
	spanIDs     = "ids"
	spanParents = "parents"
	spanStarts  = "starts"
	spanEnds    = "ends"

	eventMarker   = "__events"
	eventLevels   = "levels"  // per-event severity ordinal
	eventWhens    = "whens"   // per-event worker-clock timestamp
	eventNFields  = "nfields" // per-event count of field rows
	eventFieldKey = "fkeyix"  // per-field index into the key table
	eventFieldNum = "fnums"   // per-field numeric value, or index into fstrs
	eventFieldStr = "fisstr"  // per-field 0/1: is the value a string
	eventKeys     = "fkeys"   // intern table: the distinct field keys
	eventStrs     = "fstrs"   // intern table: the distinct string values
)

// appendTo adds the payloads to a worker's result list; an empty half
// ships nothing.
func (wr *workerRecords) appendTo(out *nsp.List) {
	if len(wr.spans) > 0 {
		out.Add(encodeSpanPayload(wr.spans, wr.recvAt))
	}
	if len(wr.events) > 0 {
		out.Add(encodeEventPayload(wr.events, wr.recvAt))
	}
}

// shift moves the records from the worker's clock onto the master's and
// attributes the events to the worker's rank.
func (wr *workerRecords) shift(by float64, rank int) {
	for i := range wr.spans {
		wr.spans[i].Start += by
		wr.spans[i].End += by
	}
	for i := range wr.events {
		wr.events[i].When += by
		wr.events[i].Rank = rank
	}
}

func encodeSpanPayload(recs []telemetry.SpanRecord, recvAt float64) *nsp.Hash {
	n := len(recs)
	w := newBundle()
	w.scalar(spanMarker, 1)
	w.scalar(recvAtKey, recvAt)
	ids, parents, traces := w.ids(spanIDs, n), w.ids(spanParents, n), w.ids(tracesKey, n)
	nameIx, starts, ends := w.floats(nameIxKey, n), w.floats(spanStarts, n), w.floats(spanEnds, n)
	var names interner
	for i, rec := range recs {
		ids.put(i, rec.ID)
		parents.put(i, rec.ParentID)
		traces.put(i, rec.TraceID)
		nameIx[i] = names.ix(rec.Name)
		starts[i] = rec.Start
		ends[i] = rec.End
	}
	w.table(namesKey, names)
	return w.h
}

func encodeEventPayload(evs []telemetry.Event, recvAt float64) *nsp.Hash {
	n, m := len(evs), 0
	for _, ev := range evs {
		m += len(ev.Fields)
	}
	w := newBundle()
	w.scalar(eventMarker, 1)
	w.scalar(recvAtKey, recvAt)
	levels, nameIx, whens := w.floats(eventLevels, n), w.floats(nameIxKey, n), w.floats(eventWhens, n)
	traces, nFields := w.ids(tracesKey, n), w.floats(eventNFields, n)
	keyIx, nums, isStr := w.floats(eventFieldKey, m), w.floats(eventFieldNum, m), w.floats(eventFieldStr, m)
	var names, keys, strs interner
	fi := 0
	for i, ev := range evs {
		levels[i] = float64(ev.Level)
		nameIx[i] = names.ix(ev.Name)
		traces.put(i, ev.TraceID)
		whens[i] = ev.When
		nFields[i] = float64(len(ev.Fields))
		for _, f := range ev.Fields {
			keyIx[fi] = keys.ix(f.Key)
			if s, ok := f.StrValue(); ok {
				isStr[fi] = 1
				nums[fi] = strs.ix(s)
			} else {
				nums[fi], _ = f.NumValue()
			}
			fi++
		}
	}
	w.table(namesKey, names)
	w.table(eventKeys, keys)
	w.table(eventStrs, strs)
	return w.h
}

// decodeRecords fills wr from item if item is a span or an event
// payload, and reports false for anything else (a task result). Times
// stay on the worker clock and events at RankLocal until shift.
func decodeRecords(item nsp.Object, wr *workerRecords) (bool, error) {
	h, ok := item.(*nsp.Hash)
	if !ok {
		return false, nil
	}
	r := bundleReader{h: h}
	switch {
	case r.has(spanMarker):
		r.what = "span payload"
		wr.decodeSpans(&r)
	case r.has(eventMarker):
		r.what = "event payload"
		wr.decodeEvents(&r)
	default:
		return false, nil
	}
	return true, r.err
}

func (wr *workerRecords) decodeSpans(r *bundleReader) {
	names := r.strs(namesKey, -1)
	nameIx := r.ints(nameIxKey, -1, 0, float64(len(names)-1))
	n := len(nameIx)
	ids, parents, traces := r.ids(spanIDs, n), r.ids(spanParents, n), r.ids(tracesKey, n)
	starts, ends := r.times(spanStarts, n), r.times(spanEnds, n)
	recvAt := r.times(recvAtKey, 1)
	if r.err != nil {
		return
	}
	spans := make([]telemetry.SpanRecord, n)
	for i := range spans {
		spans[i] = telemetry.SpanRecord{
			ID: ids.at(i), ParentID: parents.at(i), TraceID: traces.at(i),
			Name: names[int(nameIx[i])], Start: starts[i], End: ends[i],
		}
		if spans[i].ID == 0 {
			// 0 is "no parent": a span that is its own missing parent would
			// send the tree renderer round in circles.
			r.fail("span %d has no ID", i)
			return
		}
	}
	wr.spans, wr.recvAt = spans, recvAt[0]
}

func (wr *workerRecords) decodeEvents(r *bundleReader) {
	names, keys, strs := r.strs(namesKey, -1), r.strs(eventKeys, -1), r.strs(eventStrs, -1)
	levels := r.ints(eventLevels, -1, float64(telemetry.LevelDebug), float64(telemetry.LevelError))
	n := len(levels)
	nameIx := r.ints(nameIxKey, n, 0, float64(len(names)-1))
	traces, whens := r.ids(tracesKey, n), r.times(eventWhens, n)
	isStr := r.ints(eventFieldStr, -1, 0, 1)
	m := len(isStr)
	keyIx, nums := r.ints(eventFieldKey, m, 0, float64(len(keys)-1)), r.floats(eventFieldNum, m)
	nFields := r.ints(eventNFields, n, 0, float64(m))
	recvAt := r.times(recvAtKey, 1)
	if r.err != nil {
		return
	}
	evs := make([]telemetry.Event, n)
	fi := 0
	for i := range evs {
		nf := int(nFields[i])
		if fi+nf > m {
			r.fail("declares more fields than its %d field rows", m)
			return
		}
		evs[i] = telemetry.Event{
			When: whens[i], Level: telemetry.Level(levels[i]), Name: names[int(nameIx[i])],
			TraceID: traces.at(i), Rank: telemetry.RankLocal,
		}
		for ; nf > 0; nf-- {
			key := keys[int(keyIx[fi])]
			switch {
			case isStr[fi] == 0:
				evs[i].Fields = append(evs[i].Fields, telemetry.Num(key, nums[fi]))
			case whole(nums[fi], 0, float64(len(strs)-1)):
				evs[i].Fields = append(evs[i].Fields, telemetry.Str(key, strs[int(nums[fi])]))
			default:
				r.fail("string value index %v out of range", nums[fi])
				return
			}
			fi++
		}
	}
	if fi != m {
		r.fail("leaves %d of its %d field rows unclaimed", m-fi, m)
		return
	}
	wr.events, wr.recvAt = evs, recvAt[0]
}
