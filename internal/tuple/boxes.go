package tuple

import (
	"reflect"
	"unsafe"
)

// Boxes carves interface values of type T out of arrays owned by one
// goroutine: the value counterpart of Slab. Converting a T to interface{}
// normally copies it into a fresh heap box; Box copies it into the next
// free element of the current array instead and returns an interface whose
// data word points at that element. The result is indistinguishable from
// any(v) under type assertion, type switch, ==, reflect and fmt.
//
// Elements are carved like Slab's (see carver): each is written once and
// never handed out again, so no value is recycled under a live reference,
// and a long-lived Boxes costs 1/slabSize of an allocation per value. The
// price is Slab's too: a kept value keeps its whole array alive, at most
// slabSize values (264 B of float64s, 792 B of []byte headers). Types
// whose conversion allocates nothing anyway are returned as any(v):
// interface types, zero-size types and pointer-shaped types (pointer, map,
// chan, func, unsafe.Pointer, and a struct or array holding exactly one of
// these). A Boxes is not safe for concurrent use; the zero value is ready.
type Boxes[T any] struct {
	carver[T]
	typ   unsafe.Pointer // T's type word, for values carved from the array
	plain bool           // any(v) allocates nothing for T
	ready bool           // typ and plain are set
}

// eface is the layout of an empty interface value, as the Go runtime lays
// it out (runtime.eface): a type word, then a data word. For a type that is
// not pointer-shaped the data word points at the value; Box relies on
// exactly that, and on nothing else, to build interfaces over carved
// elements. Nothing else in this package uses unsafe.
type eface struct {
	typ, data unsafe.Pointer
}

// Box returns v as an interface value whose storage is carved from b.
func (b *Boxes[T]) Box(v T) any {
	if !b.ready {
		b.init()
	}
	if b.plain {
		return v
	}
	p := b.carve()
	*p = v
	var e any
	*(*eface)(unsafe.Pointer(&e)) = eface{typ: b.typ, data: unsafe.Pointer(p)}
	return e
}

func (b *Boxes[T]) init() {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	b.plain = rt.Kind() == reflect.Interface || rt.Size() == 0 || pointerShaped(rt)
	if !b.plain {
		var zero T
		e := any(zero)
		b.typ = (*eface)(unsafe.Pointer(&e)).typ
	}
	b.ready = true
}

// pointerShaped reports whether the runtime stores a value of rt in an
// interface's data word itself rather than behind a pointer to a copy: the
// compiler's rule for direct-interface types.
func pointerShaped(rt reflect.Type) bool {
	switch rt.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		return rt.NumField() == 1 && pointerShaped(rt.Field(0).Type)
	case reflect.Array:
		return rt.Len() == 1 && pointerShaped(rt.Elem())
	}
	return false
}
