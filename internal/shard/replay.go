// WAL replay routing: crash recovery applies the logged mutation suffix
// through the sharded wrapper so every record lands in the shard that owned
// it before the crash. Ownership is determined by the same rules as live
// traffic — deletes and updates route to the shard whose id range contains
// the external id, inserts extend the open-ended range of the last shard —
// which is exactly what preserves the contiguous-id-range invariant across
// a restart: a recovered collection reassigns every insert the id it was
// acked with, or recovery fails loudly instead of serving diverged ids.
package shard

import (
	"fmt"

	"topk/internal/wal"
)

// Apply replays one recovered WAL record. Inserts must land on exactly the
// external id recorded at append time; a mismatch means the log does not
// continue the collection it is being replayed onto (wrong base snapshot,
// or acked records lost to mid-log corruption) and aborts recovery rather
// than let ids silently diverge from what clients were acked.
func (s *Sharded) Apply(rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		id, err := s.Insert(rec.Ranking)
		if err != nil {
			return fmt.Errorf("shard: replay insert: %w", err)
		}
		if id != rec.ID {
			return fmt.Errorf("shard: replay insert assigned id %d, want %d (wal does not continue this snapshot)", id, rec.ID)
		}
		return nil
	case wal.OpDelete:
		if err := s.Delete(rec.ID); err != nil {
			return fmt.Errorf("shard: replay delete: %w", err)
		}
		return nil
	case wal.OpUpdate:
		if err := s.Update(rec.ID, rec.Ranking); err != nil {
			return fmt.Errorf("shard: replay update: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("shard: replay: unknown op %d", rec.Op)
	}
}
