package obs

import "fmt"

// SchemaVersion is the version stamped on every JSON Lines record this
// package emits — JSONL events, flight-recorder dumps, runtime samples and
// the provenance ledger records layered on the same encoder. Version 1 is
// the historical unversioned stream (no schema_version field at all);
// version 2 added the field itself. Bump it whenever a record type changes
// shape incompatibly, and readers built against the old shape will reject
// the stream instead of misparsing it.
const SchemaVersion = 2

// CheckSchemaVersion validates a record's schema_version against this
// build's SchemaVersion. Readers call it per stream (the version is
// constant within one file) and surface the error instead of guessing at
// fields that may have moved.
func CheckSchemaVersion(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("obs: record schema_version %d, this build reads %d", v, SchemaVersion)
	}
	return nil
}
