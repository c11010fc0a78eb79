package journal

import (
	"fmt"
	"slices"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
)

// Replay returns the production a verified journal describes, given pre,
// production before its first record (never written): pre plus every
// applied change, minus every journaled restore — a recovered record undoes
// every change of its intent, a rolled-back or quarantined one those on the
// devices it restored. Every production write is journaled, so this is
// production itself.
func Replay(pre *netmodel.Network, records []Record) (*netmodel.Network, error) {
	state := pre.CloneCOW()
	var intent *Record
	for i := range records {
		r := &records[i]
		if r.Kind != KindIntent && intent == nil {
			return nil, fmt.Errorf("journal: %s record %d without intent", r.Kind, r.Index)
		}
		var err error
		switch r.Kind {
		case KindIntent:
			intent = r
		case KindApplied:
			if r.ChangeIndex < 0 || r.ChangeIndex >= len(intent.Changes) {
				return nil, fmt.Errorf("journal: applied record %d without matching intent", r.Index)
			}
			err = config.ApplyChanges(state, intent.Changes[r.ChangeIndex:r.ChangeIndex+1])
		case KindRolledBack, KindQuarantined:
			err = config.RestoreUndos(state, slices.DeleteFunc(slices.Clone(intent.Undos),
				func(u config.Undo) bool { return !slices.Contains(r.Restored, u.Device) }))
		case KindRecovered:
			err = config.RestoreUndos(state, intent.Undos)
		}
		if err != nil {
			return nil, fmt.Errorf("journal: replaying record %d: %w", r.Index, err)
		}
	}
	return state, nil
}
