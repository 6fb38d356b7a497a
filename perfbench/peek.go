package main

// Read-only access to simulator objects the program builds but does not
// export. exp.Scenario.Run hands its traffic hook only the two end hosts;
// the switches, links and FANcY detectors behind them are reached by
// following the unexported fields netsim keeps (Host.tx, LinkEnd.dir,
// direction.dst, Switch.ingressHooks). Nothing is written through them. If
// a refactor renames a field, the walk reports it and the counters that
// depend on it read zero (bench.peek_ok drops to 0) instead of failing the
// run.

import (
	"fmt"
	"reflect"
	"unsafe"

	"fancy/internal/fancy"
	"fancy/internal/netsim"
)

// field returns the named field of the struct v points to (or of the
// pointer an interface v holds), usable even when unexported.
func field(v reflect.Value, name string) (reflect.Value, error) {
	if v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return reflect.Value{}, fmt.Errorf("peek: %v is not a pointer to a struct", v.Type())
	}
	f := v.Elem().FieldByName(name)
	if !f.IsValid() {
		return reflect.Value{}, fmt.Errorf("peek: %v has no field %q", v.Type(), name)
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), nil
}

// netView is every link direction, switch and FANcY detector reachable
// from a set of nodes.
type netView struct {
	ends      []*netsim.LinkEnd
	switches  []*netsim.Switch
	detectors []*fancy.Detector
	err       error // first peek failure; the view is then partial
}

// walkNet collects the network reachable from hosts and switches.
func walkNet(hosts []*netsim.Host, switches []*netsim.Switch) netView {
	var v netView
	seenEnd := map[*netsim.LinkEnd]bool{}
	seenNode := map[netsim.Node]bool{}
	var queue []netsim.Node
	push := func(n netsim.Node) {
		if n != nil && !seenNode[n] {
			seenNode[n] = true
			queue = append(queue, n)
		}
	}
	fail := func(err error) {
		if v.err == nil {
			v.err = err
		}
	}
	for _, h := range hosts {
		push(h)
	}
	for _, sw := range switches {
		push(sw)
	}
	follow := func(e *netsim.LinkEnd) {
		if e == nil || seenEnd[e] {
			return
		}
		seenEnd[e] = true
		v.ends = append(v.ends, e)
		n, err := farEnd(e)
		if err != nil {
			fail(err)
			return
		}
		push(n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		switch n := n.(type) {
		case *netsim.Host:
			e, err := uplink(n)
			if err != nil {
				fail(err)
				continue
			}
			follow(e)
		case *netsim.Switch:
			v.switches = append(v.switches, n)
			for p := 0; p < n.NumPorts(); p++ {
				follow(n.Port(p))
			}
			d, err := detectorOn(n)
			if err != nil {
				fail(err)
			} else if d != nil {
				v.detectors = append(v.detectors, d)
			}
		}
	}
	return v
}

// detectorOn returns the detector hooked into sw (nil if there is none).
func detectorOn(sw *netsim.Switch) (*fancy.Detector, error) {
	hooks, err := field(reflect.ValueOf(sw), "ingressHooks")
	if err != nil {
		return nil, err
	}
	for i := 0; i < hooks.Len(); i++ {
		if d, ok := hooks.Index(i).Interface().(*fancy.Detector); ok {
			return d, nil
		}
	}
	return nil, nil
}

// uplink returns a host's transmit link end.
func uplink(h *netsim.Host) (*netsim.LinkEnd, error) {
	tx, err := field(reflect.ValueOf(h), "tx")
	if err != nil {
		return nil, err
	}
	e, _ := tx.Interface().(*netsim.LinkEnd)
	if e == nil {
		return nil, fmt.Errorf("peek: host %s is not attached", h.Name())
	}
	return e, nil
}

// farEnd returns the node a link end delivers to.
func farEnd(e *netsim.LinkEnd) (netsim.Node, error) {
	dir, err := field(reflect.ValueOf(e), "dir")
	if err != nil {
		return nil, err
	}
	dst, err := field(dir, "dst")
	if err != nil {
		return nil, err
	}
	n, _ := dst.Interface().(netsim.Node)
	return n, nil
}
