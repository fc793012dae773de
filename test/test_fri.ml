(* FRI low-degree test: completeness across sizes, rejection of
   out-of-degree claims and tampered proofs — the second hash-based PCS
   demonstrating NoCap's generality claim (Sec. IV-E). *)

module Gf = Zk_field.Gf
module Fri = Zk_orion.Fri
module Transcript = Zk_hash.Transcript
module Rng = Zk_util.Rng
module Fri_pcs = Zk_orion.Fri_pcs
module Engine = Zk_pcs.Engine

let params = Fri.default_params

let prove_poly ~seed n =
  let rng = Rng.create seed in
  let coeffs = Array.init n (fun _ -> Gf.random rng) in
  let t = Transcript.create "fri-test" in
  (coeffs, Fri.prove params t coeffs)

let verify ~degree_bound proof =
  let t = Transcript.create "fri-test" in
  Fri.verify params t ~degree_bound proof

let test_completeness () =
  List.iter
    (fun n ->
      let _, proof = prove_poly ~seed:(Int64.of_int (700 + n)) n in
      match verify ~degree_bound:n proof with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n e)
    [ 1; 2; 8; 64; 256; 1024 ]

let test_constant_poly () =
  let t = Transcript.create "fri-test" in
  let proof = Fri.prove params t [| Gf.of_int 7; Gf.zero; Gf.zero; Gf.zero |] in
  (match verify ~degree_bound:4 proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "constant: %s" e);
  Alcotest.(check bool) "constant recovered" true
    (Gf.equal proof.Fri.final_constant (Gf.of_int 7))

let test_degree_cheat_rejected () =
  (* A degree-2n polynomial committed against a degree-n bound: forge by
     proving at the larger bound and verifying at the smaller one. *)
  let n = 64 in
  let _, proof = prove_poly ~seed:701L (2 * n) in
  match verify ~degree_bound:n proof with
  | Ok () -> Alcotest.fail "accepted an out-of-degree polynomial"
  | Error _ -> ()

let test_tampered_constant_rejected () =
  let _, proof = prove_poly ~seed:702L 128 in
  let bad = { proof with Fri.final_constant = Gf.add proof.Fri.final_constant Gf.one } in
  match verify ~degree_bound:128 bad with
  | Ok () -> Alcotest.fail "accepted a tampered constant"
  | Error _ -> ()

let test_tampered_layer_rejected () =
  let _, proof = prove_poly ~seed:703L 128 in
  let q = proof.Fri.queries.(3) in
  let a, b, p1, p2 = q.Fri.layers.(1) in
  q.Fri.layers.(1) <- (Gf.add a Gf.one, b, p1, p2);
  match verify ~degree_bound:128 proof with
  | Ok () -> Alcotest.fail "accepted a tampered opening"
  | Error _ -> ()

let test_wrong_transcript_rejected () =
  let _, proof = prove_poly ~seed:704L 64 in
  let t = Transcript.create "some-other-domain" in
  match Fri.verify params t ~degree_bound:64 proof with
  | Ok () -> Alcotest.fail "accepted under divergent challenges"
  | Error _ -> ()

let test_proof_size () =
  let _, proof = prove_poly ~seed:705L 1024 in
  let sz = Fri.proof_size_bytes proof in
  (* Logarithmic layers x 30 queries x (pair + path): tens of KB, far below
     the committed 4096-point table. *)
  Alcotest.(check bool) (Printf.sprintf "size %d plausible" sz) true
    (sz > 10_000 && sz < 400_000)

(* Textbook fold, one [Gf.inv] per element: the oracle for {!Fri.fold}'s
   running-inverse form. *)
let reference_fold ~log_n ~shift evals beta =
  let half = Array.length evals / 2 in
  let w = Gf.root_of_unity log_n in
  let inv2 = Gf.inv Gf.two in
  Array.init half (fun j ->
      let a = evals.(j) and b = evals.(j + half) in
      let x = Gf.mul shift (Gf.pow w (Int64.of_int j)) in
      let even = Gf.mul inv2 (Gf.add a b) in
      let odd = Gf.mul inv2 (Gf.mul (Gf.sub a b) (Gf.inv x)) in
      Gf.add even (Gf.mul beta odd))

let test_fold_matches_reference () =
  let rng = Rng.create 706L in
  for log_n = 1 to 10 do
    let n = 1 lsl log_n in
    let evals = Array.init n (fun _ -> Gf.random rng) in
    let beta = Gf.random rng in
    List.iter
      (fun shift ->
        let expected = reference_fold ~log_n ~shift evals beta in
        let got = Fri.fold ~shift evals beta in
        Array.iteri
          (fun j e ->
            Alcotest.(check int64)
              (Printf.sprintf "fold n=%d shift=%Lu j=%d" n shift j)
              e got.(j))
          expected)
      [ Gf.one; Gf.multiplicative_generator ]
  done

(* A streamed opening folds each codeword layer in blocks whose running
   [x^-1] restarts at [Gf.pow w^-1 j]. A 2 KiB budget pins the block at its
   1024-element floor, so at 2^12 variables (16384-point codeword) the
   first layers fold in 8, 4 and 2 blocks and every block start j <> 0 is
   exercised; the proof must still match the dense one byte for byte. *)
let test_streamed_blocks_match_dense () =
  let params = Fri_pcs.test_params in
  let l = 12 in
  let rng = Rng.create 707L in
  let table = Array.init (1 lsl l) (fun _ -> Gf.random rng) in
  let point = Array.init l (fun _ -> Gf.random rng) in
  let engine = Engine.create ~stream_budget_bytes:2048 () in
  let open_with ?engine () =
    let committed, cm = Fri_pcs.commit ?engine params (Rng.create 0L) table in
    let t = Transcript.create "fri-blocks" in
    Fri_pcs.absorb_commitment t cm;
    let value, proof = Fri_pcs.open_at ?engine params committed t point in
    Fri_pcs.free_committed committed;
    let buf = Buffer.create 4096 in
    Fri_pcs.write_commitment buf cm;
    Zk_pcs.Codec.put_gf buf value;
    Fri_pcs.write_eval_proof buf proof;
    Buffer.contents buf
  in
  Alcotest.(check string) "streamed bytes = dense bytes" (open_with ()) (open_with ~engine ())

let prop_random_sizes =
  QCheck.Test.make ~count:10 ~name:"FRI roundtrip at random sizes"
    QCheck.(int_range 0 7)
    (fun log_n ->
      let n = 1 lsl log_n in
      let _, proof = prove_poly ~seed:(Int64.of_int (800 + log_n)) n in
      match verify ~degree_bound:n proof with Ok () -> true | Error _ -> false)

let suite =
  [
    Alcotest.test_case "completeness" `Quick test_completeness;
    Alcotest.test_case "constant polynomial" `Quick test_constant_poly;
    Alcotest.test_case "degree cheat rejected" `Quick test_degree_cheat_rejected;
    Alcotest.test_case "tampered constant rejected" `Quick test_tampered_constant_rejected;
    Alcotest.test_case "tampered layer rejected" `Quick test_tampered_layer_rejected;
    Alcotest.test_case "wrong transcript rejected" `Quick test_wrong_transcript_rejected;
    Alcotest.test_case "proof size" `Quick test_proof_size;
    Alcotest.test_case "fold = per-element-inverse reference" `Quick test_fold_matches_reference;
    Alcotest.test_case "streamed multi-block fold = dense bytes" `Quick
      test_streamed_blocks_match_dense;
    QCheck_alcotest.to_alcotest prop_random_sizes;
  ]
