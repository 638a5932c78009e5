// Stub of fdp/internal/ref for the lockgraph fixtures.
package ref

type Ref struct{ id int32 }
