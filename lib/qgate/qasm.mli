(** OpenQASM 2.0 subset — serialization for circuits.

    Supports the header, a single [qreg], optional [creg] (ignored),
    comments, [barrier]/[measure] statements (ignored on parse),
    user-defined parameterized gates
    ([gate name(p, …) a, b { … }], expanded inline with parameter and
    qubit substitution, nested up to depth 64), and the built-in gate
    applications this project emits: id, x, y, z, h, s, sdg, t, tdg,
    rx(θ), ry(θ), rz(θ), p(θ)/u1(θ), cx, cz, cp(θ)/cu1(θ), swap, iswap,
    rxx(θ), ryy(θ), rzz(θ), ccx. Angle expressions allow literals, [pi],
    gate parameters, unary minus, [+ - * /] and parentheses; every
    evaluated angle must be finite, so [rz(1e400)] or an overflowing
    [rz(1e300*1e300)] is a {!Parse_error}. *)

exception Parse_error of string
(** Raised with a message containing the offending line. *)

val of_string : string -> Circuit.t
val to_string : Circuit.t -> string

val read_file : string -> Circuit.t
val write_file : string -> Circuit.t -> unit
