exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- tiny recursive-descent parser for angle expressions --- *)

type tok =
  | Num of float
  | Pi
  | Ident of string
  | Plus
  | Minus
  | Star
  | Slash
  | Lpar
  | Rpar

let lex_expr s =
  let n = String.length s in
  let toks = ref [] in
  let k = ref 0 in
  while !k < n do
    let ch = s.[!k] in
    if ch = ' ' || ch = '\t' then incr k
    else if ch = '+' then (toks := Plus :: !toks; incr k)
    else if ch = '-' then (toks := Minus :: !toks; incr k)
    else if ch = '*' then (toks := Star :: !toks; incr k)
    else if ch = '/' then (toks := Slash :: !toks; incr k)
    else if ch = '(' then (toks := Lpar :: !toks; incr k)
    else if ch = ')' then (toks := Rpar :: !toks; incr k)
    else if (ch >= '0' && ch <= '9') || ch = '.' then begin
      let start = !k in
      while
        !k < n
        && ((s.[!k] >= '0' && s.[!k] <= '9')
            || s.[!k] = '.' || s.[!k] = 'e' || s.[!k] = 'E'
            || (s.[!k] = '-' && !k > start && (s.[!k - 1] = 'e' || s.[!k - 1] = 'E'))
            || (s.[!k] = '+' && !k > start && (s.[!k - 1] = 'e' || s.[!k - 1] = 'E')))
      do
        incr k
      done;
      let text = String.sub s start (!k - start) in
      match float_of_string_opt text with
      | Some v -> toks := Num v :: !toks
      | None -> fail "bad number %S in %S" text s
    end
    else if (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'
    then begin
      let start = !k in
      while
        !k < n
        && ((s.[!k] >= 'a' && s.[!k] <= 'z')
            || (s.[!k] >= 'A' && s.[!k] <= 'Z')
            || (s.[!k] >= '0' && s.[!k] <= '9')
            || s.[!k] = '_')
      do
        incr k
      done;
      let name = String.sub s start (!k - start) in
      if String.lowercase_ascii name = "pi" then toks := Pi :: !toks
      else toks := Ident name :: !toks
    end
    else fail "unexpected character %C in expression %S" ch s
  done;
  List.rev !toks

let parse_expr ?(env = fun name -> fail "unknown parameter %S" name) s =
  let toks = ref (lex_expr s) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> () | _ :: rest -> toks := rest in
  let rec expr () =
    let v = ref (term ()) in
    let rec loop () =
      match peek () with
      | Some Plus ->
        advance ();
        v := !v +. term ();
        loop ()
      | Some Minus ->
        advance ();
        v := !v -. term ();
        loop ()
      | _ -> ()
    in
    loop ();
    !v
  and term () =
    let v = ref (factor ()) in
    let rec loop () =
      match peek () with
      | Some Star ->
        advance ();
        v := !v *. factor ();
        loop ()
      | Some Slash ->
        advance ();
        let d = factor () in
        if d = 0. then fail "division by zero in %S" s;
        v := !v /. d;
        loop ()
      | _ -> ()
    in
    loop ();
    !v
  and factor () =
    match peek () with
    | Some Minus ->
      advance ();
      -.factor ()
    | Some Plus ->
      advance ();
      factor ()
    | Some (Num v) ->
      advance ();
      v
    | Some Pi ->
      advance ();
      Float.pi
    | Some (Ident name) ->
      advance ();
      (env name : float)
    | Some Lpar ->
      advance ();
      let v = expr () in
      (match peek () with
       | Some Rpar -> advance ()
       | _ -> fail "missing ) in %S" s);
      v
    | _ -> fail "malformed expression %S" s
  in
  let v = expr () in
  if !toks <> [] then fail "trailing tokens in expression %S" s;
  (* an out-of-range literal (1e400) or an overflow (1e300*1e300) would
     reach the dense checks as nan gate entries *)
  if not (Float.is_finite v) then fail "non-finite value in expression %S" s;
  v

(* --- gate definitions --- *)

type gate_def = {
  def_params : string list;
  def_formals : string list;
  def_body : string list;  (** raw statements *)
}

(* extract `gate name(p, ...) q, ... { body }` blocks from the
   comment-stripped source; returns (definitions, remaining text) *)
let extract_gate_defs text =
  let defs = Hashtbl.create 8 in
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let rec scan k =
    if k >= n then ()
    else if
      k + 5 <= n
      && String.sub text k 5 = "gate "
      && (k = 0 || text.[k - 1] = ' ' || text.[k - 1] = ';' || text.[k - 1] = '\n')
    then begin
      let lbrace =
        match String.index_from_opt text k '{' with
        | Some p -> p
        | None -> fail "gate definition without a body near %S" (String.sub text k (min 40 (n - k)))
      in
      let rbrace =
        match String.index_from_opt text lbrace '}' with
        | Some p -> p
        | None -> fail "unterminated gate body"
      in
      let header = String.trim (String.sub text (k + 5) (lbrace - k - 5)) in
      let body_text = String.sub text (lbrace + 1) (rbrace - lbrace - 1) in
      let name, params, formals_text =
        match String.index_opt header '(' with
        | Some lp ->
          let rp =
            try String.index_from header lp ')'
            with Not_found -> fail "missing ) in gate header %S" header
          in
          ( String.trim (String.sub header 0 lp),
            String.sub header (lp + 1) (rp - lp - 1)
            |> String.split_on_char ','
            |> List.map String.trim
            |> List.filter (fun p -> p <> ""),
            String.trim (String.sub header (rp + 1) (String.length header - rp - 1)) )
        | None ->
          (match String.index_opt header ' ' with
           | None -> fail "gate header %S has no qubit arguments" header
           | Some sp ->
             ( String.sub header 0 sp,
               [],
               String.trim
                 (String.sub header (sp + 1) (String.length header - sp - 1)) ))
      in
      let formals =
        formals_text |> String.split_on_char ',' |> List.map String.trim
        |> List.filter (fun q -> q <> "")
      in
      if formals = [] then fail "gate %S has no qubit arguments" name;
      let body =
        body_text |> String.split_on_char ';' |> List.map String.trim
        |> List.filter (fun st -> st <> "")
      in
      Hashtbl.replace defs name { def_params = params; def_formals = formals; def_body = body };
      scan (rbrace + 1)
    end
    else begin
      Buffer.add_char buf text.[k];
      scan (k + 1)
    end
  in
  scan 0;
  (defs, Buffer.contents buf)

(* --- statement parsing --- *)

let strip_comment line =
  match String.index_opt line '/' with
  | Some k when k + 1 < String.length line && line.[k + 1] = '/' ->
    String.sub line 0 k
  | _ -> line

let split_statements text =
  text
  |> String.split_on_char '\n'
  |> List.map strip_comment
  |> String.concat " "
  |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* "name(args) q[0],q[1]" -> (name, Some args, operand string) *)
let split_application stmt =
  match String.index_opt stmt '(' with
  | Some lp when not (String.contains (String.sub stmt 0 lp) ' ') ->
    let rp =
      try String.rindex stmt ')'
      with Not_found -> fail "missing ) in %S" stmt
    in
    let name = String.trim (String.sub stmt 0 lp) in
    let args = String.sub stmt (lp + 1) (rp - lp - 1) in
    let operands = String.trim (String.sub stmt (rp + 1) (String.length stmt - rp - 1)) in
    (name, Some args, operands)
  | _ ->
    (match String.index_opt stmt ' ' with
     | None -> (stmt, None, "")
     | Some sp ->
       ( String.sub stmt 0 sp,
         None,
         String.trim (String.sub stmt (sp + 1) (String.length stmt - sp - 1)) ))

let parse_qubit reg s =
  let s = String.trim s in
  match String.index_opt s '[' with
  | Some lb when String.length s > 0 && s.[String.length s - 1] = ']' ->
    let name = String.sub s 0 lb in
    if name <> reg then fail "unknown register %S (declared %S)" name reg;
    let idx = String.sub s (lb + 1) (String.length s - lb - 2) in
    (match int_of_string_opt (String.trim idx) with
     | Some v -> v
     | None -> fail "bad qubit index in %S" s)
  | _ -> fail "bad qubit operand %S" s

let of_string text =
  let stripped =
    text |> String.split_on_char '\n' |> List.map strip_comment
    |> String.concat "\n"
  in
  let defs, remaining = extract_gate_defs stripped in
  let statements = split_statements remaining in
  let reg = ref None in
  let size = ref 0 in
  let gates = ref [] in
  let get_reg stmt =
    match !reg with
    | Some r -> r
    | None -> fail "gate before qreg declaration: %S" stmt
  in
  let rec emit depth ~param_env ~qubit_env stmt =
    if depth > 64 then fail "gate definitions nested deeper than 64";
    let name, args, operands = split_application stmt in
    let angle1 () =
      match args with
      | Some a -> parse_expr ~env:param_env a
      | None -> fail "missing angle in %S" stmt
    in
    let qs =
      if operands = "" then []
      else operands |> String.split_on_char ',' |> List.map qubit_env
    in
    match (Hashtbl.find_opt defs name : gate_def option) with
    | Some def ->
      let arg_values =
        match args with
        | None -> []
        | Some a ->
          a |> String.split_on_char ',' |> List.map String.trim
          |> List.filter (fun x -> x <> "")
          |> List.map (parse_expr ~env:param_env)
      in
      if List.length arg_values <> List.length def.def_params then
        fail "gate %S expects %d parameters, got %d" name
          (List.length def.def_params)
          (List.length arg_values);
      if List.length qs <> List.length def.def_formals then
        fail "gate %S expects %d qubits, got %d" name
          (List.length def.def_formals)
          (List.length qs);
      let inner_params p =
        match List.combine def.def_params arg_values |> List.assoc_opt p with
        | Some v -> v
        | None -> fail "unknown parameter %S in gate %S" p name
      in
      let inner_qubits q =
        let q = String.trim q in
        match List.combine def.def_formals qs |> List.assoc_opt q with
        | Some v -> v
        | None -> fail "unknown qubit argument %S in gate %S" q name
      in
      List.iter
        (emit (depth + 1) ~param_env:inner_params ~qubit_env:inner_qubits)
        def.def_body
    | None ->
      let g =
        match (name, qs) with
        | "id", [ q ] -> Gate.id q
        | "x", [ q ] -> Gate.x q
        | "y", [ q ] -> Gate.y q
        | "z", [ q ] -> Gate.z q
        | "h", [ q ] -> Gate.h q
        | "s", [ q ] -> Gate.s q
        | "sdg", [ q ] -> Gate.sdg q
        | "t", [ q ] -> Gate.t q
        | "tdg", [ q ] -> Gate.tdg q
        | "rx", [ q ] -> Gate.rx (angle1 ()) q
        | "ry", [ q ] -> Gate.ry (angle1 ()) q
        | "rz", [ q ] -> Gate.rz (angle1 ()) q
        | ("p" | "u1"), [ q ] -> Gate.phase (angle1 ()) q
        | ("cx" | "CX"), [ a; b ] -> Gate.cnot a b
        | "cz", [ a; b ] -> Gate.cz a b
        | ("cp" | "cu1"), [ a; b ] -> Gate.cphase (angle1 ()) a b
        | "swap", [ a; b ] -> Gate.swap a b
        | "iswap", [ a; b ] -> Gate.iswap a b
        | "rxx", [ a; b ] -> Gate.rxx (angle1 ()) a b
        | "ryy", [ a; b ] -> Gate.ryy (angle1 ()) a b
        | "rzz", [ a; b ] -> Gate.rzz (angle1 ()) a b
        | "ccx", [ a; b; c ] -> Gate.ccx a b c
        | _ -> fail "unsupported statement %S" stmt
      in
      gates := g :: !gates
  in
  List.iter
    (fun stmt ->
      let name, _args, operands = split_application stmt in
      match name with
      | "OPENQASM" | "include" | "creg" | "barrier" | "measure" -> ()
      | "qreg" ->
        (match String.index_opt operands '[' with
         | Some lb when operands.[String.length operands - 1] = ']' ->
           if !reg <> None then fail "multiple qreg declarations";
           let name = String.sub operands 0 lb in
           reg := Some name;
           (match
              int_of_string_opt
                (String.sub operands (lb + 1) (String.length operands - lb - 2))
            with
            | Some n when n <= 0 ->
              fail "qreg %s has size %d; a register needs at least one qubit"
                name n
            | Some n -> size := n
            | None -> fail "bad qreg size in %S" stmt)
         | _ -> fail "bad qreg declaration %S" stmt)
      | _ ->
        let r = get_reg stmt in
        emit 0
          ~param_env:(fun p -> fail "unknown parameter %S" p)
          ~qubit_env:(parse_qubit r)
          stmt)
    statements;
  Circuit.make !size (List.rev !gates)


let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf
    (Printf.sprintf "qreg q[%d];\n" (Circuit.n_qubits c));
  List.iter
    (fun g ->
      let operands =
        String.concat ","
          (List.map (Printf.sprintf "q[%d]") (Gate.qubits g))
      in
      let head =
        match Gate.params g with
        | [] -> Gate.name g
        | ps ->
          Printf.sprintf "%s(%s)" (Gate.name g)
            (String.concat "," (List.map (Printf.sprintf "%.17g") ps))
      in
      Buffer.add_string buf (Printf.sprintf "%s %s;\n" head operands))
    (Circuit.gates c);
  Buffer.contents buf

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
