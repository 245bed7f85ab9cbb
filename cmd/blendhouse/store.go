// Storage plumbing for the blendhouse command: the -tier-*,
// -encrypt-key and -backup-key flags the shell and serve modes share.
package main

import (
	"flag"
	"os"
	"strings"

	"blendhouse/internal/blobtier"
	"blendhouse/internal/storage"
)

// storeFlags holds the storage-stack flags shared by the shell and
// serve modes: the tiered blob cache (off by default), at-rest
// encryption of the data directory, and the default backup key.
type storeFlags struct {
	tierMem    int64
	tierDisk   int64
	tierDir    string
	encryptKey string
	backupKey  string
}

// registerStoreFlags installs the shared storage flags on fs and
// returns the struct their values land in.
func registerStoreFlags(fs *flag.FlagSet) *storeFlags {
	sf := &storeFlags{}
	fs.Int64Var(&sf.tierMem, "tier-mem", 0, "tiered blob cache: in-memory budget in bytes (0 = cache off)")
	fs.Int64Var(&sf.tierDisk, "tier-disk", 0, "tiered blob cache: local-disk spill budget in bytes (0 = no disk tier)")
	fs.StringVar(&sf.tierDir, "tier-dir", "", "tiered blob cache: spill directory (default: <data>.tiercache, sibling of the data dir)")
	fs.StringVar(&sf.encryptKey, "encrypt-key", os.Getenv("BH_ENCRYPT_KEY"), "encrypt all blobs in the data dir with this secret (AES-GCM; also $BH_ENCRYPT_KEY)")
	fs.StringVar(&sf.backupKey, "backup-key", os.Getenv("BH_BACKUP_KEY"), "default encryption secret for BACKUP/RESTORE destinations (statement WITH KEY overrides; also $BH_BACKUP_KEY)")
	return sf
}

// openDataStore opens the FSStore for dataDir, wrapped in the
// encrypting store when -encrypt-key is set.
func (sf *storeFlags) openDataStore(dataDir string) (storage.BlobStore, error) {
	store, err := storage.NewFSStore(dataDir)
	if err != nil {
		return nil, err
	}
	if sf.encryptKey == "" {
		return store, nil
	}
	return blobtier.NewEncrypting(store, blobtier.KeyFromString(sf.encryptKey))
}

// tierConfig translates the -tier-* flags into the engine's tier
// config (nil = no tier layer). The disk spill directory defaults to
// a sibling of the data dir — never inside it, so cache files don't
// pollute the engine's own blob listings.
func (sf *storeFlags) tierConfig(dataDir string) *blobtier.Config {
	if sf.tierMem <= 0 && sf.tierDisk <= 0 {
		return nil
	}
	dir := sf.tierDir
	if dir == "" && sf.tierDisk > 0 {
		dir = strings.TrimRight(dataDir, "/") + ".tiercache"
	}
	return &blobtier.Config{MemBytes: sf.tierMem, DiskBytes: sf.tierDisk, DiskDir: dir}
}
