// Facts are the cross-package layer of the framework: an analyzer exports
// observations about package-level objects (or whole packages) while
// analyzing the package that declares them, and imports them while
// analyzing downstream packages. The driver (internal/analysis/program, and
// analysistest for fixtures) threads one in-memory FactStore through every
// package of a program in dependency order.
//
// The design mirrors x/tools go/analysis facts with the same deliberate
// subsetting as the rest of this package: fact types are pointers to
// structs, registered on Analyzer.FactTypes, and namespaced by their
// concrete type (each analyzer declares its own fact structs, so no
// analyzer pair collides).
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is an observation attached to a package-level object or a package.
// Implementations must be pointers to structs.
type Fact interface {
	// AFact marks the type as a fact.
	AFact()
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

// FactStore holds the facts of one whole-program run.
type FactStore struct {
	obj map[objFactKey]Fact
	pkg map[pkgFactKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		obj: make(map[objFactKey]Fact),
		pkg: make(map[pkgFactKey]Fact),
	}
}

// ExportObjectFact attaches f to obj, overwriting any previous fact of the
// same concrete type. The fact type must be registered in the analyzer's
// FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.checkFactType(f)
	if p.Facts == nil {
		p.Facts = NewFactStore()
	}
	p.Facts.obj[objFactKey{obj, reflect.TypeOf(f)}] = f
}

// ImportObjectFact copies the fact of ptr's concrete type attached to obj
// into *ptr and reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if p.Facts == nil || obj == nil {
		return false
	}
	f, ok := p.Facts.obj[objFactKey{obj, reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ExportPackageFact attaches f to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.checkFactType(f)
	if p.Facts == nil {
		p.Facts = NewFactStore()
	}
	p.Facts.pkg[pkgFactKey{p.Pkg, reflect.TypeOf(f)}] = f
}

// ImportPackageFact copies the fact of ptr's concrete type attached to pkg
// (typically an import of the package under analysis) into *ptr and reports
// whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, ptr Fact) bool {
	if p.Facts == nil || pkg == nil {
		return false
	}
	f, ok := p.Facts.pkg[pkgFactKey{pkg, reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

func (p *Pass) checkFactType(f Fact) {
	t := reflect.TypeOf(f)
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not registered in Analyzer.FactTypes", p.Analyzer.Name, f))
}
