(* tests for the qcc command-line boundary: malformed inputs end in the
   documented exit 2 with a one-line message, never an uncaught exception *)

open Util

let qcc = "../bin/qcc_cli.exe"

(* run [qcc compile -f FILE] on the program [source]; returns the exit
   code and the captured stderr *)
let compile_source source =
  let src = Filename.temp_file "qcc_cli" ".qasm" in
  let err = Filename.temp_file "qcc_cli" ".err" in
  Out_channel.with_open_text src (fun oc -> output_string oc source);
  let code =
    Sys.command
      (Printf.sprintf "%s compile -f %s > /dev/null 2> %s" qcc
         (Filename.quote src) (Filename.quote err))
  in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove src;
  Sys.remove err;
  (code, stderr)

(* a two-qubit program whose first gate is [stmt] *)
let compile_qasm stmt =
  compile_source
    (Printf.sprintf "OPENQASM 2.0;\nqreg q[2];\n%s\ncx q[0], q[1];\n" stmt)

let check_exit_2 (code, stderr) =
  check_int "exit code" 2 code;
  check_bool "one-line qcc: message" true
    (String.length stderr > 5
    && String.sub stderr 0 5 = "qcc: "
    && String.index_opt stderr '\n' = Some (String.length stderr - 1))

let rejected stmt =
  case (Printf.sprintf "%s exits 2" stmt) (fun () ->
      check_exit_2 (compile_qasm stmt))

let cli_cases =
  [ rejected "rz(1e400) q[0];";
    rejected "rz(1/0) q[0];";
    rejected "rz(nan) q[0];";
    rejected "u3(0.1, 0.2, 0.3) q[0];";
    case "qreg q[0]; exits 2 naming the register" (fun () ->
        let code, stderr = compile_source "OPENQASM 2.0;\nqreg q[0];\n" in
        check_exit_2 (code, stderr);
        check_bool "names the register" true
          (Str.string_match (Str.regexp ".*qreg q has size 0") stderr 0));
    case "a finite program still compiles" (fun () ->
        check_int "exit code" 0 (fst (compile_qasm "rz(0.25) q[0];"))) ]

let suites = [ ("cli", cli_cases) ]
