package dataplane

import "slices"

// FirstStale exposes the carry test to the external property test
// (TestFirstStaleMatchesNames), which imports the generated tiers.
func (s *Snapshot) FirstStale(tr *Trace, replay bool) int { return s.firstStale(tr, replay) }

// FirstStaleByName is firstStale as it was before traces recorded their
// hops' positions: the reference the position-based test is held to. It
// compares device names, and it takes what moved from s's parent and the
// change set s was derived over, not from Derive's position lists: stale are
// the devices a change of another kind than ChangeACL names, ACL-stale those
// a ChangeACL names, and suspects the others whose route cell is not the
// parent's, moved when their RIB differs from the parent's. Only a snapshot
// derived with carry (Carries(nil)) has any of them. Its replay is its own
// (replaysByName).
func (s *Snapshot) FirstStaleByName(parent *Snapshot, changes ChangeSet, tr *Trace, replay bool) int {
	if s.parentFlows == nil {
		return len(tr.Hops)
	}
	var stale, aclStale []string
	for _, c := range changes {
		if c.Kind == ChangeACL {
			aclStale = append(aclStale, c.Device)
		} else {
			stale = append(stale, c.Device)
		}
	}
	suspects := make(map[string]bool)
	for i, name := range s.names {
		if s.cells[i] != parent.cells[i] && !slices.Contains(stale, name) {
			suspects[name] = !sameRoutes(s.cell(i).rib, parent.cell(i).rib)
		}
	}
	first := len(tr.Hops)
	for i := range tr.Hops {
		dev := tr.Hops[i].Device
		if slices.Contains(stale, dev) || slices.Contains(aclStale, dev) && (!replay || !s.replaysByName(tr, i)) {
			first = i
			break
		}
	}
	for i := range tr.Hops[:first] {
		if suspects[tr.Hops[i].Device] {
			return i
		}
	}
	return first
}

// replaysByName is the replay as it was before Derive resolved the
// ACL-stale devices' bindings: hop i of tr run through aclStep on the device,
// its interfaces and its ACLs looked up by name in s's network, and held to
// the ACL result the hop took: the drop tr ends in, else a pass.
func (s *Snapshot) replaysByName(tr *Trace, i int) bool {
	h := &tr.Hops[i]
	drop := aclStep(s.net.Devices[h.Device], h.InIf, h.OutIf, &tr.Flow)
	if i == len(tr.Hops)-1 && tr.Disposition == DropACL {
		return drop.is(tr.Detail)
	}
	return drop == aclDrop{}
}
