// Campaign persistence. The on-disk format is the VVD2 family (stream.go):
// a versioned, checksummed, streaming store whose header carries the
// complete Config.
//
// Compatibility policy: Save writes, and OpenCampaign reads, version 3 of
// the VVD2 family only. Files in the retired v2 layout and in the retired,
// unversioned v1 format ("VVDC" magic) are rejected with an error that asks
// for the campaign to be regenerated.

package dataset

import (
	"io"

	"vvd/internal/room"
)

// campaignMagicV1 identifies the retired v1 campaign format ("VVDC"). It is
// recognised only so OpenCampaign can name it when refusing the file.
const campaignMagicV1 = 0x56564443

// Save writes the campaign in the current (v3) on-disk format — the
// repository's equivalent of the paper's published trace. See stream.go
// for the layout and NewWriter for set-at-a-time streaming writes.
func (c *Campaign) Save(w io.Writer) error {
	sw, err := NewWriter(w, c.Cfg, len(c.Sets))
	if err != nil {
		return err
	}
	for i := range c.Sets {
		if err := sw.WriteSet(&c.Sets[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// rebuildShell reconstructs the simulation environment for a loaded
// campaign from its stored configuration — including the Scripted flag and
// HumanScatterGain override, both of which the original loader dropped
// (reloaded campaigns regenerated different receptions than the saved
// ones). A config with an unset mobility falls back to the default walk.
func rebuildShell(cfg Config) (*Campaign, error) {
	if !cfg.Scripted && cfg.Mobility.SpeedMax <= 0 {
		cfg.Mobility = room.DefaultMobility()
	}
	return NewShell(cfg)
}
