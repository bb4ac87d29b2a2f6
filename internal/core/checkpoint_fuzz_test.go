package core

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the checkpoint reader, seeded with a
// small simulation's checkpoint and the crafted configs Load rejects. No
// input may panic, and an accepted checkpoint's canonical form, its Save
// output, must load again and save to the same bytes.
func FuzzLoad(f *testing.F) {
	raw := smallCheckpoint(f)
	f.Add(raw)
	for _, tc := range badCheckpointConfigs {
		f.Add(recode(f, raw, func(cp *checkpoint) { tc.mutate(&cp.Cfg) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var canon bytes.Buffer
		if err := s.Save(&canon); err != nil {
			t.Fatalf("accepted checkpoint does not save: %v", err)
		}
		back, err := Load(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not load: %v", err)
		}
		var again bytes.Buffer
		if err := back.Save(&again); err != nil {
			t.Fatalf("reloaded checkpoint does not save: %v", err)
		}
		if !bytes.Equal(again.Bytes(), canon.Bytes()) {
			t.Fatalf("save of the reloaded checkpoint differs: %d bytes, want %d", again.Len(), canon.Len())
		}
	})
}
