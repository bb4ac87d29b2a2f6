package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// EventKind classifies an injected health event.
type EventKind int

// The injectable health events.
const (
	// EventFail kills a device: at the step boundary (After == 0) or
	// during its After-th band of the step (the band is voided and must
	// be retried elsewhere).
	EventFail EventKind = iota
	// EventSlow degrades a device by a simulated-time Factor, optionally
	// recovering at step Until.
	EventSlow
	// EventDrain moves a device to Draining: it accepts no new bands.
	EventDrain
	// EventRecover returns a device to Healthy.
	EventRecover
)

// String returns the kind's grammar keyword.
func (k EventKind) String() string {
	switch k {
	case EventFail:
		return "fail"
	case EventSlow:
		return "slow"
	case EventDrain:
		return "drain"
	case EventRecover:
		return "recover"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scripted health event for the Injectable manager.
type Event struct {
	Kind EventKind
	// Device is the target device index.
	Device int
	// Step is the simulation step the event fires at.
	Step int
	// After, for EventFail, makes the failure strike during the device's
	// After-th band execution of the step instead of at the boundary.
	After int
	// Factor is the EventSlow simulated-time multiplier (> 0).
	Factor float64
	// Until, for EventSlow, recovers the device at that step (0 = never).
	Until int
}

// String renders the event in the ParseEvents grammar.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:dev=%d,step=%d", e.Kind, e.Device, e.Step)
	if e.After > 0 {
		fmt.Fprintf(&b, ",after=%d", e.After)
	}
	if e.Kind == EventSlow {
		fmt.Fprintf(&b, ",factor=%g", e.Factor)
		if e.Until > 0 {
			fmt.Fprintf(&b, ",until=%d", e.Until)
		}
	}
	return b.String()
}

// ParseEvents parses a health-event script. The grammar, as accepted by
// beamsim's -inject flag:
//
//	events := event (";" event)*
//	event  := kind ":" field ("," field)*
//	kind   := "fail" | "slow" | "drain" | "recover"
//	field  := "dev=" int | "step=" int | "after=" int
//	        | "factor=" float | "until=" int
//
// dev and step are required for every event; factor (finite, > 0) is
// required for slow; after is only valid for fail; until only for slow.
// Example:
//
//	fail:dev=1,step=9,after=2;slow:dev=2,step=8,factor=3,until=12
func ParseEvents(s string) ([]Event, error) {
	var out []Event
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty event script %q", s)
	}
	return out, nil
}

func parseEvent(s string) (Event, error) {
	kindStr, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("fleet: event %q: want kind:fields", s)
	}
	var ev Event
	switch kindStr {
	case "fail":
		ev.Kind = EventFail
	case "slow":
		ev.Kind = EventSlow
	case "drain":
		ev.Kind = EventDrain
	case "recover":
		ev.Kind = EventRecover
	default:
		return Event{}, fmt.Errorf("fleet: event %q: unknown kind %q (want fail|slow|drain|recover)", s, kindStr)
	}
	ev.Device, ev.Step = -1, -1
	for _, field := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Event{}, fmt.Errorf("fleet: event %q: field %q is not key=value", s, field)
		}
		var err error
		switch key {
		case "dev":
			ev.Device, err = strconv.Atoi(val)
		case "step":
			ev.Step, err = strconv.Atoi(val)
		case "after":
			if ev.Kind != EventFail {
				return Event{}, fmt.Errorf("fleet: event %q: after= is only valid for fail", s)
			}
			ev.After, err = strconv.Atoi(val)
		case "factor":
			if ev.Kind != EventSlow {
				return Event{}, fmt.Errorf("fleet: event %q: factor= is only valid for slow", s)
			}
			ev.Factor, err = strconv.ParseFloat(val, 64)
		case "until":
			if ev.Kind != EventSlow {
				return Event{}, fmt.Errorf("fleet: event %q: until= is only valid for slow", s)
			}
			ev.Until, err = strconv.Atoi(val)
		default:
			return Event{}, fmt.Errorf("fleet: event %q: unknown field %q", s, key)
		}
		if err != nil {
			return Event{}, fmt.Errorf("fleet: event %q: bad %s value %q", s, key, val)
		}
	}
	if ev.Device < 0 {
		return Event{}, fmt.Errorf("fleet: event %q: missing dev=", s)
	}
	if ev.Step < 0 {
		return Event{}, fmt.Errorf("fleet: event %q: missing step=", s)
	}
	if ev.After < 0 {
		return Event{}, fmt.Errorf("fleet: event %q: negative after=", s)
	}
	if ev.Kind == EventSlow && (!(ev.Factor > 0) || math.IsInf(ev.Factor, 1)) {
		return Event{}, fmt.Errorf("fleet: event %q: slow needs a finite factor= > 0", s)
	}
	if ev.Until != 0 && ev.Until <= ev.Step {
		return Event{}, fmt.Errorf("fleet: event %q: until= must be after step=", s)
	}
	return ev, nil
}
