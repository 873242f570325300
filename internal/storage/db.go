package storage

import (
	"fmt"
	"sort"
)

// Database is a named collection of tables. It is NOT safe for concurrent
// mutation; cluster nodes serialise access through their lock manager and
// executor.
type Database struct {
	tables map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable validates the schema and adds an empty table.
func (db *Database) CreateTable(schema *TableSchema) (*Table, error) {
	if err := schema.init(); err != nil {
		return nil, err
	}
	if _, dup := db.tables[schema.Name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name)
	}
	t := newTable(schema)
	db.tables[schema.Name] = t
	return t, nil
}

// MustCreateTable creates a table or panics; for static schema definitions.
func (db *Database) MustCreateTable(schema *TableSchema) *Table {
	t, err := db.CreateTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// TableNames lists tables in sorted order.
func (db *Database) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumTuples sums row counts over all tables.
func (db *Database) NumTuples() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// SizeBytes sums approximate table sizes.
func (db *Database) SizeBytes() int64 {
	var s int64
	for _, t := range db.tables {
		s += t.SizeBytes()
	}
	return s
}

// Clone deep-copies the database (used to give every simulated node its
// own copy of replicated tables, and to reset state between experiments).
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for _, t := range db.tables {
		schema := *t.Schema
		nt := out.MustCreateTable(&schema)
		t.ViewAll(func(_ int64, row Row) bool {
			if err := nt.Insert(row); err != nil {
				panic(err)
			}
			return true
		})
	}
	return out
}
