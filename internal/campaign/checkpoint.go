package campaign

// On-disk checkpoint layout. A campaign directory holds:
//
//	manifest.json   — the campaign plan identity (schema, golden key, seed,
//	                  trial geometry, golden digest). Written once, verified
//	                  on every resume: a directory written under a different
//	                  plan refuses to resume (ErrCheckpoint).
//	shard-NNNNN.json — one file per completed shard: the shard index and the
//	                  per-trial classes and cycle counts, in trial order.
//
// Every file is written to a .tmp sibling, fsynced, renamed into place, and
// the directory is fsynced after the rename. A process kill at any instant
// leaves either no shard file or a complete one, and because a committed
// file's data and directory entry reach stable storage before the write
// returns, an OS crash or power loss after that point cannot lose or empty
// it either — there is no torn state to repair. Resume is therefore
// trivial: load every well-formed shard file, re-run the rest. An
// unreadable or ill-sized shard file is treated as missing and re-run,
// which self-heals rather than wedging the campaign.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifestSchema versions the checkpoint layout itself.
const manifestSchema = 1

// manifest is the plan identity a checkpoint directory is pinned to.
type manifest struct {
	Schema        int    `json:"schema"`
	Key           string `json:"key"`
	Seed          uint64 `json:"seed"`
	TrialsPerSite int    `json:"trials_per_site"`
	MaxSites      int    `json:"max_sites"`
	ShardSize     int    `json:"shard_size"`
	Sites         int    `json:"sites"`
	Trials        int    `json:"trials"`
	GoldenDigest  string `json:"golden_digest"`
}

// shardFile is one completed shard's durable record.
type shardFile struct {
	Shard   int      `json:"shard"`
	Classes []Class  `json:"classes"`
	Cycles  []uint64 `json:"cycles"`
}

// checkpoint is an open campaign checkpoint directory.
type checkpoint struct {
	dir       string
	shardSize int
	trials    int
	shards    int
}

// openCheckpoint creates or resumes the checkpoint directory for a plan,
// verifying any existing manifest against the current plan.
func openCheckpoint(cfg Config, g *Golden, trials, shards int) (*checkpoint, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating checkpoint dir: %w", err)
	}
	want := manifest{
		Schema:        manifestSchema,
		Key:           g.Key,
		Seed:          cfg.Seed,
		TrialsPerSite: cfg.TrialsPerSite,
		MaxSites:      cfg.MaxSites,
		ShardSize:     cfg.ShardSize,
		Sites:         len(cappedSites(cfg, g)),
		Trials:        trials,
		GoldenDigest:  fmt.Sprintf("%016x", g.Digest),
	}
	path := filepath.Join(cfg.Dir, "manifest.json")
	if data, err := os.ReadFile(path); err == nil {
		var got manifest
		if err := json.Unmarshal(data, &got); err != nil {
			return nil, fmt.Errorf("campaign: corrupt checkpoint manifest %s: %w", path, err)
		}
		if got != want {
			return nil, fmt.Errorf("%w: %s holds %+v, plan is %+v", ErrCheckpoint, cfg.Dir, got, want)
		}
	} else {
		if err := writeAtomic(path, want); err != nil {
			return nil, err
		}
	}
	return &checkpoint{dir: cfg.Dir, shardSize: cfg.ShardSize, trials: trials, shards: shards}, nil
}

// shardPath names shard si's file.
func (c *checkpoint) shardPath(si int) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard-%05d.json", si))
}

// loadShards reads every well-formed completed shard into done/results.
func (c *checkpoint) loadShards(done []bool, results []Result) error {
	for si := 0; si < c.shards; si++ {
		data, err := os.ReadFile(c.shardPath(si))
		if err != nil {
			continue
		}
		var sf shardFile
		n := shardLen(si, c.shardSize, c.trials)
		if json.Unmarshal(data, &sf) != nil || sf.Shard != si ||
			len(sf.Classes) != n || len(sf.Cycles) != n {
			// Ill-formed shard record: treat as missing and re-run it.
			continue
		}
		lo := si * c.shardSize
		for i := 0; i < n; i++ {
			results[lo+i] = Result{Class: sf.Classes[i], Cycles: sf.Cycles[i]}
		}
		done[si] = true
	}
	return nil
}

// writeShard durably records one completed shard.
func (c *checkpoint) writeShard(si int, results []Result) error {
	sf := shardFile{Shard: si, Classes: make([]Class, len(results)), Cycles: make([]uint64, len(results))}
	for i, r := range results {
		sf.Classes[i] = r.Class
		sf.Cycles[i] = r.Cycles
	}
	return writeAtomic(c.shardPath(si), sf)
}

// writeAtomic durably writes v as JSON: the bytes go to a .tmp sibling that
// is fsynced before an atomic rename, and the directory is fsynced after it
// so the rename itself survives a crash.
func writeAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encoding %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		return fmt.Errorf("campaign: writing %s: %w", filepath.Base(tmp), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("campaign: committing %s: %w", filepath.Base(path), err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("campaign: syncing checkpoint dir for %s: %w", filepath.Base(path), err)
	}
	return nil
}

// writeSynced writes data to name and fsyncs it before closing.
func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
