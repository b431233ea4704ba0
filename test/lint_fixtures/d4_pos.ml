(* Fixture: serialization and unsafe casts, banned everywhere. *)
let dump x = Marshal.to_string x []
let cast x = Obj.magic x
