// Package cli holds what the command-line tools share: the flags that
// name a database, and the one function that opens it.
package cli

import (
	"errors"
	"flag"
	"strings"

	"leveldbpp/internal/core"
)

// DBFlags declares -db, -index and -attrs on fs and returns the function
// that opens the database they name, with the engine tuning of the
// Options it is given. A database that records its index opens as it
// records: -index and -attrs are read only when given, and core.Open
// fails unless they match. A new database, or one written before
// databases recorded their index, takes -index and -attrs.
func DBFlags(fs *flag.FlagSet) func(core.Options) (*core.DB, error) {
	dir := fs.String("db", "", "database directory (required)")
	index := fs.String("index", "lazy", "index kind of a new database: none|embedded|eager|lazy|composite")
	attrs := fs.String("attrs", "UserID,CreationTime", "comma-separated indexed attributes of a new database")
	return func(opts core.Options) (*core.DB, error) {
		if *dir == "" {
			return nil, errors.New("-db is required")
		}
		kind, recorded, ok, err := core.ReadDescriptor(*dir)
		if err != nil {
			return nil, err
		}
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !ok || given["index"] {
			if kind, err = core.ParseIndexKind(*index); err != nil {
				return nil, err
			}
		}
		if !ok || given["attrs"] {
			recorded = strings.Split(*attrs, ",")
		}
		opts.Index, opts.Attrs = kind, recorded
		return core.Open(*dir, opts)
	}
}
