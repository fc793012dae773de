(* The streaming out-of-core prover pinned against in-memory oracles.

   Every streaming component — spill files, blocked eq tables, ranged
   SpMV, chunked witness emission, the incremental Merkle builder, the
   recompute-halves sumcheck, the out-of-core PCS commits/openings, and
   the end-to-end Spartan pipeline — must be *byte-identical* to its
   in-memory counterpart (for the sumcheck, the independent boxed
   prove_arrays; for Spartan, whose budgeted and unbudgeted runs share
   one body, also the goldens in test_pcs): Goldilocks ops are exact and
   canonical, so any algebraically equal evaluation order yields the
   same bits, the same transcripts, the same proofs. The suite runs under
   every NOCAP_NATIVE mode via the runtest matrix in test/dune, and the
   Spartan equivalence sweeps domain counts 1/2/3. *)

module Gf = Zk_field.Gf
module Fv = Nocap_vec.Fv
module Spill = Nocap_vec.Spill
module Mle = Zk_poly.Mle
module Sparse = Zk_r1cs.Sparse
module R1cs = Zk_r1cs.R1cs
module Merkle = Zk_merkle.Merkle
module Sumcheck = Zk_sumcheck.Sumcheck
module Engine = Zk_pcs.Engine
module Transcript = Zk_hash.Transcript
module Orion = Zk_orion.Orion
module Fri_pcs = Zk_orion.Fri_pcs
module Pool = Nocap_parallel.Pool
module Rng = Zk_util.Rng
module Builder = Zk_r1cs.Builder
module Gadgets = Zk_r1cs.Gadgets
module Spartan = Zk_spartan.Spartan
module Spartan_fri = Zk_spartan.Spartan.Make (Zk_orion.Fri_pcs)

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gf_of_rng rng = Gf.of_int64 (Rng.next rng)
let random_gf_array rng n = Array.init n (fun _ -> gf_of_rng rng)

let check_gf_array msg a b =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Gf.equal x b.(i)) then Alcotest.failf "%s: element %d differs" msg i)
    a

(* --- Spill files -------------------------------------------------------- *)

let test_spill_roundtrip () =
  let before = Spill.live_files () in
  List.iter
    (fun n ->
      let rng = Rng.create (Int64.of_int (n + 7)) in
      let data = random_gf_array rng n in
      let s = Spill.create ~tag:"test" ~spill:true n in
      Alcotest.(check bool) "spilled" true (Spill.is_spilled s);
      (* write in ragged chunks *)
      let pos = ref 0 in
      let step = ref 3 in
      while !pos < n do
        let len = min !step (n - !pos) in
        Spill.write s ~pos:!pos (Fv.of_array (Array.sub data !pos len));
        pos := !pos + len;
        step := 1 + ((!step * 2) mod 11)
      done;
      (* blocked read-back *)
      let buf = Fv.create (min 5 n) in
      let pos = ref 0 in
      while !pos < n do
        let len = min (Fv.length buf) (n - !pos) in
        let v = Fv.sub_view buf ~pos:0 ~len in
        Spill.read s ~pos:!pos v;
        for i = 0 to len - 1 do
          if not (Gf.equal (Fv.get v i) data.(!pos + i)) then
            Alcotest.failf "n=%d: read mismatch at %d" n (!pos + i)
        done;
        pos := !pos + len
      done;
      (* point reads *)
      List.iter
        (fun i ->
          if i < n && not (Gf.equal (Spill.get s i) data.(i)) then
            Alcotest.failf "n=%d: point get mismatch at %d" n i)
        [ 0; 1; n / 2; n - 1 ];
      (* a spilled vector has no in-RAM view *)
      (try
         ignore (Spill.as_fv s);
         Alcotest.fail "as_fv on a spilled vector should raise"
       with Invalid_argument _ -> ());
      check_gf_array (Printf.sprintf "to_fv n=%d" n) data (Fv.to_array (Spill.to_fv s));
      Spill.free s;
      Spill.free s (* idempotent *))
    [ 1; 7; 64; 1000 ];
  Alcotest.(check int) "all spill files released" before (Spill.live_files ())

let test_spill_ram_backing () =
  let rng = Rng.create 11L in
  let data = random_gf_array rng 33 in
  let s = Spill.create ~tag:"ram" ~spill:false 33 in
  Alcotest.(check bool) "not spilled" false (Spill.is_spilled s);
  Spill.write s ~pos:0 (Fv.of_array data);
  check_gf_array "ram as_fv" data (Fv.to_array (Spill.as_fv s));
  let wrapped = Spill.of_fv (Fv.of_array data) in
  check_gf_array "of_fv" data (Fv.to_array (Spill.to_fv wrapped));
  Spill.free s

let test_spill_reader () =
  let n = 513 in
  let rng = Rng.create 42L in
  let data = random_gf_array rng n in
  let s = Spill.create ~tag:"reader" ~spill:true n in
  Spill.write s ~pos:0 (Fv.of_array data);
  let r = Spill.Reader.create ~window:32 s in
  (* sequential, strided, backward, random: window reloads must be invisible *)
  let probe i =
    if not (Gf.equal (Spill.Reader.get r i) data.(i)) then
      Alcotest.failf "reader mismatch at %d" i
  in
  for i = 0 to n - 1 do
    probe i
  done;
  let i = ref (n - 1) in
  while !i >= 0 do
    probe !i;
    i := !i - 37
  done;
  List.iter probe [ 0; n - 1; 256; 31; 32; 33; 511; 1 ];
  Spill.free s

let test_spill_bounds () =
  let s = Spill.create ~tag:"bounds" ~spill:true 8 in
  let buf = Fv.create 4 in
  (try
     Spill.read s ~pos:6 buf;
     Alcotest.fail "out-of-range read should raise"
   with Invalid_argument _ -> ());
  (try
     Spill.write s ~pos:(-1) buf;
     Alcotest.fail "negative write should raise"
   with Invalid_argument _ -> ());
  Spill.free s

(* --- blocked eq tables -------------------------------------------------- *)

let prop_eq_table_range =
  qcheck ~count:60 "eq_table_range = eq_table slice"
    QCheck.(pair (int_range 0 8) small_int)
    (fun (l, seed) ->
      let rng = Rng.create (Int64.of_int (succ seed)) in
      let point = random_gf_array rng l in
      let full = Mle.eq_table point in
      let n = 1 lsl l in
      (* every aligned power-of-two block size *)
      let ok = ref true in
      let len = ref 1 in
      while !len <= n do
        let lo = ref 0 in
        while !lo < n do
          let part = Mle.eq_table_range point ~lo:!lo ~len:!len in
          for i = 0 to !len - 1 do
            if not (Gf.equal part.(i) full.(!lo + i)) then ok := false
          done;
          lo := !lo + !len
        done;
        len := !len * 2
      done;
      !ok)

(* --- ranged SpMV -------------------------------------------------------- *)

let random_sparse rng ~nrows ~ncols ~per_row =
  let entries = ref [] in
  for r = 0 to nrows - 1 do
    for _ = 1 to 1 + Rng.int rng per_row do
      entries := (r, Rng.int rng ncols, gf_of_rng rng) :: !entries
    done
  done;
  Sparse.of_entries ~nrows ~ncols !entries

let test_spmv_ranges () =
  let rng = Rng.create 77L in
  let m = random_sparse rng ~nrows:37 ~ncols:29 ~per_row:4 in
  let x = random_gf_array rng 29 in
  let y = random_gf_array rng 37 in
  let full = Sparse.spmv m x in
  let fullt = Sparse.spmv_transpose m y in
  List.iter
    (fun (lo, hi) ->
      let part = Sparse.spmv_range m ~x:(fun j -> x.(j)) ~r_lo:lo ~r_hi:hi in
      check_gf_array
        (Printf.sprintf "spmv_range [%d,%d)" lo hi)
        (Array.sub full lo (hi - lo))
        part)
    [ (0, 37); (0, 1); (36, 37); (5, 21); (17, 18) ];
  List.iter
    (fun (lo, hi) ->
      let part = Sparse.spmv_transpose_range m ~y:(fun i -> y.(i)) ~c_lo:lo ~c_hi:hi in
      check_gf_array
        (Printf.sprintf "spmv_transpose_range [%d,%d)" lo hi)
        (Array.sub fullt lo (hi - lo))
        part)
    [ (0, 29); (0, 1); (28, 29); (3, 17) ]

(* --- chunked witness emission ------------------------------------------- *)

let chain_circuit seed steps =
  let rng = Rng.create (Int64.of_int seed) in
  let b = Builder.create () in
  let cur = ref (Builder.witness b (Gf.of_int (2 + Rng.int rng 100))) in
  for _ = 1 to steps do
    let other = Builder.witness b (Gf.of_int (1 + Rng.int rng 100)) in
    cur :=
      (match Rng.int rng 3 with
      | 0 -> Gadgets.mul b !cur other
      | 1 -> Gadgets.add b !cur other
      | _ -> Gadgets.select b ~cond:(Gadgets.is_zero b other) !cur other)
  done;
  let out = Builder.input b (Builder.value b !cur) in
  Gadgets.assert_equal b (Builder.lc_var !cur) (Builder.lc_var out);
  Builder.finalize b

let test_z_blocks () =
  let inst, asn = chain_circuit 3 50 in
  let full = R1cs.z inst asn in
  let n = Array.length full in
  List.iter
    (fun (pos, len) ->
      check_gf_array
        (Printf.sprintf "z_block pos=%d len=%d" pos len)
        (Array.sub full pos len)
        (R1cs.z_block inst asn ~pos ~len))
    [ (0, n); (0, 1); (n - 1, 1); (n / 2, n / 2); (3, 17) ];
  List.iter
    (fun block ->
      let out = Array.make n Gf.zero in
      let seen = ref 0 in
      R1cs.iter_z_blocks inst asn ~block (fun ~pos slice ->
          Array.blit slice 0 out pos (Array.length slice);
          seen := !seen + Array.length slice);
      Alcotest.(check int) (Printf.sprintf "iter covers all (block=%d)" block) n !seen;
      check_gf_array (Printf.sprintf "iter_z_blocks block=%d" block) full out)
    [ 1; 7; 64; n; 3 * n ]

(* --- incremental Merkle builder ----------------------------------------- *)

let test_merkle_builder () =
  let rng = Rng.create 99L in
  List.iter
    (fun n ->
      let leaves =
        Array.init n (fun _ -> Merkle.leaf_of_column (random_gf_array rng 2))
      in
      let reference = Merkle.build leaves in
      (* push in ragged chunks *)
      let b = Merkle.Builder.create n in
      let pos = ref 0 in
      let step = ref 1 in
      while !pos < n do
        let len = min !step (n - !pos) in
        Merkle.Builder.add b (Array.sub leaves !pos len);
        pos := !pos + len;
        step := 1 + ((!step * 3) mod 7)
      done;
      let tree = Merkle.Builder.finish b in
      Alcotest.(check string)
        (Printf.sprintf "root n=%d" n)
        (Merkle.root reference) (Merkle.root tree);
      for i = 0 to n - 1 do
        if Merkle.path reference i <> Merkle.path tree i then
          Alcotest.failf "n=%d: path %d differs" n i
      done)
    [ 1; 2; 3; 5; 8; 13; 16; 33 ]

(* --- streaming sumcheck ------------------------------------------------- *)

let comb2 v = Gf.mul v.(0) v.(1)
let comb3 v = Gf.mul v.(0) (Gf.sub (Gf.mul v.(1) v.(2)) v.(3))

let check_sumcheck_equal msg (a : Sumcheck.prover_result) (b : Sumcheck.prover_result) =
  Alcotest.(check int)
    (msg ^ ": rounds")
    (Array.length a.Sumcheck.proof.Sumcheck.round_polys)
    (Array.length b.Sumcheck.proof.Sumcheck.round_polys);
  Array.iteri
    (fun i g -> check_gf_array (Printf.sprintf "%s: round %d" msg i) g
        b.Sumcheck.proof.Sumcheck.round_polys.(i))
    a.Sumcheck.proof.Sumcheck.round_polys;
  check_gf_array (msg ^ ": challenges") a.Sumcheck.challenges b.Sumcheck.challenges;
  check_gf_array (msg ^ ": final values") a.Sumcheck.final_values b.Sumcheck.final_values;
  Alcotest.(check bool)
    (msg ^ ": stats")
    true
    (a.Sumcheck.stats = b.Sumcheck.stats)

let run_sumcheck_pair ~l ~degree ~tables_count ~comb ~comb_mults ~budget seed =
  let n = 1 lsl l in
  let rng = Rng.create (Int64.of_int (succ seed)) in
  let tables = Array.init tables_count (fun _ -> random_gf_array rng n) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (comb (Array.map (fun t -> t.(b)) tables))
    done;
    !acc
  in
  (* prove and prove_streaming share one round engine, so the boxed
     prove_arrays — written independently — is the oracle for both. *)
  let t0 = Transcript.create "stream-test" in
  let oracle = Sumcheck.prove_arrays ~comb_mults t0 ~degree ~tables ~comb ~claim in
  let t1 = Transcript.create "stream-test" in
  let reference =
    Sumcheck.prove ~comb_mults t1 ~degree ~tables ~comb ~claim
  in
  let t2 = Transcript.create "stream-test" in
  let spills = Array.map Spill.of_array tables in
  let streamed =
    Sumcheck.prove_streaming ~comb_mults ~budget_bytes:budget t2 ~degree
      ~tables:spills ~comb ~claim
  in
  let msg = Printf.sprintf "l=%d budget=%d" l budget in
  check_sumcheck_equal (msg ^ " (prove)") oracle reference;
  check_sumcheck_equal msg oracle streamed;
  (* the transcripts must have ended in the same state *)
  let after = Array.map (fun t -> Transcript.challenge_gf t "after") [| t0; t1; t2 |] in
  Alcotest.(check bool)
    (msg ^ ": transcript state")
    true
    (Gf.equal after.(0) after.(1) && Gf.equal after.(0) after.(2))

let test_sumcheck_streaming () =
  (* budgets chosen to force: never spills (huge), spills the first round
     only, spills most rounds (tiny) *)
  List.iter
    (fun budget ->
      List.iter
        (fun l ->
          run_sumcheck_pair ~l ~degree:2 ~tables_count:2 ~comb:comb2 ~comb_mults:1
            ~budget (l + budget);
          run_sumcheck_pair ~l ~degree:3 ~tables_count:4 ~comb:comb3 ~comb_mults:2
            ~budget (l * 31 + budget))
        [ 0; 1; 2; 5; 8 ])
    [ 256; 4 * 1024; 64 * 1024 * 1024 ]

let test_sumcheck_spilled_tables () =
  (* same equivalence with the inputs living in actual files *)
  let l = 7 in
  let n = 1 lsl l in
  let rng = Rng.create 1234L in
  let tables = Array.init 2 (fun _ -> random_gf_array rng n) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (comb2 [| tables.(0).(b); tables.(1).(b) |])
    done;
    !acc
  in
  let t0 = Transcript.create "stream-test" in
  let oracle =
    Sumcheck.prove_arrays ~comb_mults:1 t0 ~degree:2 ~tables ~comb:comb2 ~claim
  in
  let t1 = Transcript.create "stream-test" in
  let reference = Sumcheck.prove ~comb_mults:1 t1 ~degree:2 ~tables ~comb:comb2 ~claim in
  let t2 = Transcript.create "stream-test" in
  let spills =
    Array.map
      (fun t ->
        let s = Spill.create ~tag:"sc" ~spill:true n in
        Spill.write s ~pos:0 (Fv.of_array t);
        s)
      tables
  in
  let streamed =
    Sumcheck.prove_streaming ~comb_mults:1 ~budget_bytes:512 t2 ~degree:2
      ~tables:spills ~comb:comb2 ~claim
  in
  Array.iter Spill.free spills;
  check_sumcheck_equal "in-RAM tables" oracle reference;
  check_sumcheck_equal "spilled tables" oracle streamed

(* --- Comb descriptions: the native round kernel vs the boxed oracle ----- *)

module Comb = Sumcheck.Comb
module Native = Nocap_native.Native

(* A random description over [k] tables of total degree <= [degree], with
   coefficients drawn from 0, 1, p - 1 and uniform values. *)
let random_comb rng ~k ~degree =
  let col () = Rng.int rng k in
  let factor = if Rng.int rng 2 = 0 then Some (col ()) else None in
  let room = degree - if Option.is_some factor then 1 else 0 in
  let coeff () =
    match Rng.int rng 4 with
    | 0 -> Gf.zero
    | 1 -> Gf.one
    | 2 -> Gf.neg Gf.one
    | _ -> gf_of_rng rng
  in
  let term _ =
    { Comb.coeff = coeff (); cols = Array.init (Rng.int rng (room + 1)) (fun _ -> col ()) }
  in
  { Comb.factor; terms = Array.init (Rng.int rng 5) term }

(* prove_comb in every native mode, at 1/2/3 domains, with no budget and
   under [budget] (small enough that rounds stream), against prove_arrays
   over the closure the same description evaluates. *)
let check_comb_against_oracle ~msg ~degree ~comb ~budget tables =
  let n = Array.length tables.(0) in
  let claim =
    let acc = ref Gf.zero in
    for b = 0 to n - 1 do
      acc := Gf.add !acc (Comb.eval comb (Array.map (fun t -> t.(b)) tables))
    done;
    !acc
  in
  let oracle =
    Sumcheck.prove_arrays ~comb_mults:(Comb.mults comb) (Transcript.create "comb-test")
      ~degree ~tables ~comb:(Comb.eval comb) ~claim
  in
  List.iter
    (fun d ->
      Pool.with_domains d (fun () ->
          List.iter
            (fun mode ->
              Native.with_mode mode (fun () ->
                  List.iter
                    (fun budget_bytes ->
                      let res =
                        Sumcheck.prove_comb ~engine:(Engine.create ()) ?budget_bytes
                          (Transcript.create "comb-test") ~degree
                          ~tables:(Array.map Spill.of_array tables) ~comb ~claim
                      in
                      check_sumcheck_equal
                        (Printf.sprintf "%s, native %s, %d domains, budget %s" msg
                           (Native.mode_to_string mode) d
                           (match budget_bytes with None -> "none" | Some b -> string_of_int b))
                        oracle res)
                    [ None; Some budget ]))
            [ Native.Off; Native.Scalar; Native.Simd ]))
    [ 1; 2; 3 ]

let prop_comb_kernel =
  qcheck ~count:25 "comb kernel = prove_arrays (modes x domains x budgets)"
    QCheck.(make ~print:string_of_int (Gen.int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create (Int64.of_int (succ seed)) in
      let k = 1 + Rng.int rng 9 and degree = 1 + Rng.int rng 4 and l = Rng.int rng 12 in
      let comb = random_comb rng ~k ~degree in
      let tables = Array.init k (fun _ -> random_gf_array rng (1 lsl l)) in
      check_comb_against_oracle
        ~msg:(Printf.sprintf "seed %d (k=%d, degree %d, l=%d)" seed k degree l)
        ~degree ~comb ~budget:512 tables;
      true)

let test_comb_multi_chunk () =
  (* Halves above the 1024-pair chunk, so rounds split across domains:
     Spartan's sumcheck #1 shape and a random description. *)
  let rng = Rng.create 4242L in
  check_comb_against_oracle ~msg:"sc1 at 2^13" ~degree:3 ~comb:Spartan.sumcheck1_comb
    ~budget:4096
    (Array.init 4 (fun _ -> random_gf_array rng (1 lsl 13)));
  let comb = random_comb rng ~k:6 ~degree:4 in
  check_comb_against_oracle ~msg:"random at 2^12" ~degree:4 ~comb ~budget:4096
    (Array.init 6 (fun _ -> random_gf_array rng (1 lsl 12)))

let test_comb_invalid () =
  let tables k = Array.map Spill.of_array (Array.init k (fun _ -> Array.make 4 Gf.one)) in
  let rejects msg ?(k = 3) ?(degree = 3) comb =
    let t = Transcript.create "comb-invalid" in
    (match Sumcheck.prove_comb t ~degree ~tables:(tables k) ~comb ~claim:Gf.zero with
    | _ -> Alcotest.failf "%s: accepted" msg
    | exception Invalid_argument _ -> ());
    (* rejected before anything reached the transcript *)
    Alcotest.(check bool)
      (msg ^ ": transcript untouched")
      true
      (Gf.equal (Transcript.challenge_gf t "x")
         (Transcript.challenge_gf (Transcript.create "comb-invalid") "x"))
  in
  let term = Comb.term in
  rejects "factor column >= k" { Comb.factor = Some 3; terms = [| term [ 0 ] |] };
  rejects "term column >= k" { Comb.factor = None; terms = [| term [ 0; 3 ] |] };
  rejects "negative column" { Comb.factor = None; terms = [| term [ -1 ] |] };
  rejects "term degree above degree" ~degree:2 { Comb.factor = Some 0; terms = [| term [ 1; 2 ] |] };
  rejects "degree 0" ~degree:0 { Comb.factor = None; terms = [||] };
  rejects "degree above the kernel limit" ~degree:(Comb.max_degree + 1)
    { Comb.factor = None; terms = [| term [ 0 ] |] };
  rejects "tables above the kernel limit" ~k:(Comb.max_tables + 1)
    { Comb.factor = None; terms = [| term [ 0 ] |] };
  rejects "terms above the kernel limit"
    { Comb.factor = None; terms = Array.make (Comb.max_terms + 1) (term [ 0 ]) };
  rejects "non-canonical coefficient" { Comb.factor = None; terms = [| term ~coeff:Gf.p [ 0 ] |] };
  (* round_step's table lengths guard the kernel's reads *)
  let comb = { Comb.factor = None; terms = [| term [ 0 ] |] } in
  List.iter
    (fun (msg, fold, half) ->
      match Sumcheck.round_step ?fold ~degree:1 ~comb [| Fv.create 8 |] ~half with
      | _ -> Alcotest.failf "round_step %s: accepted" msg
      | exception Invalid_argument _ -> ())
    [ ("half too large", None, 5); ("fold past the end", Some Gf.one, 3); ("negative half", None, -1) ]

(* --- out-of-core PCS commits and openings ------------------------------- *)

let budget_engine bytes = Engine.create ~stream_budget_bytes:bytes ()

let test_orion_streamed_equal () =
  let params = { Orion.default_params with Orion.rows = 8 } in
  List.iter
    (fun l ->
      let rng = Rng.create 5L in
      let table = random_gf_array rng (1 lsl l) in
      let point = random_gf_array (Rng.create 6L) l in
      let cd, cm_d = Orion.commit params (Rng.create 9L) table in
      let cs, cm_s = Orion.commit ~engine:(budget_engine 2048) params (Rng.create 9L) table in
      Alcotest.(check string) "orion root" cm_d.Orion.root cm_s.Orion.root;
      let t1 = Transcript.create "orion-stream" in
      Orion.absorb_commitment t1 cm_d;
      let v1, p1 = Orion.prove_eval params cd t1 point in
      let t2 = Transcript.create "orion-stream" in
      Orion.absorb_commitment t2 cm_s;
      let v2, p2 = Orion.prove_eval ~engine:(budget_engine 2048) params cs t2 point in
      Alcotest.(check bool) "orion value" true (Gf.equal v1 v2);
      Alcotest.(check bool) "orion proof" true (p1 = p2);
      (match Orion.verify_eval params cm_s t1 point v2 p2 with
      | Ok _ | Error _ -> ());
      Orion.free_committed cs;
      Orion.free_committed cd)
    [ 4; 7; 9 ]

let test_fri_streamed_equal () =
  let params = Fri_pcs.test_params in
  List.iter
    (fun l ->
      let rng = Rng.create 15L in
      let table = random_gf_array rng (1 lsl l) in
      let point = random_gf_array (Rng.create 16L) l in
      let cd, cm_d = Fri_pcs.commit params (Rng.create 19L) table in
      let cs, cm_s =
        Fri_pcs.commit ~engine:(budget_engine 2048) params (Rng.create 19L) table
      in
      Alcotest.(check string) "fri root" cm_d.Fri_pcs.root cm_s.Fri_pcs.root;
      let t1 = Transcript.create "fri-stream" in
      Fri_pcs.absorb_commitment t1 cm_d;
      let v1, p1 = Fri_pcs.open_at params cd t1 point in
      let t2 = Transcript.create "fri-stream" in
      Fri_pcs.absorb_commitment t2 cm_s;
      let v2, p2 = Fri_pcs.open_at ~engine:(budget_engine 2048) params cs t2 point in
      Alcotest.(check bool) "fri value" true (Gf.equal v1 v2);
      Alcotest.(check bool) "fri proof" true (p1 = p2);
      Fri_pcs.free_committed cs;
      Fri_pcs.free_committed cd)
    [ 2; 5; 8 ]

(* --- end-to-end Spartan: streaming bytes = in-memory bytes -------------- *)

let spartan_pair_orion ~budget inst asn =
  let reference, _ = Spartan.prove Spartan.test_params inst asn in
  let streamed, _ = Spartan.prove ~engine:(budget_engine budget) Spartan.test_params inst asn in
  (Spartan.proof_to_bytes reference, Spartan.proof_to_bytes streamed)

let spartan_pair_fri ~budget inst asn =
  let reference, _ = Spartan_fri.prove Spartan_fri.test_params inst asn in
  let streamed, _ =
    Spartan_fri.prove ~engine:(budget_engine budget) Spartan_fri.test_params inst asn
  in
  (Spartan_fri.proof_to_bytes reference, Spartan_fri.proof_to_bytes streamed)

let test_spartan_streaming_equal () =
  let live_before = Spill.live_files () in
  let inst, asn = chain_circuit 21 120 in
  List.iter
    (fun budget ->
      let r, s = spartan_pair_orion ~budget inst asn in
      Alcotest.(check bool)
        (Printf.sprintf "orion bytes equal (budget=%d)" budget)
        true (Bytes.equal r s);
      let r, s = spartan_pair_fri ~budget inst asn in
      Alcotest.(check bool)
        (Printf.sprintf "fri bytes equal (budget=%d)" budget)
        true (Bytes.equal r s))
    [ 2 * 1024; 64 * 1024; 256 * 1024 * 1024 ];
  Alcotest.(check int) "no leaked spill files" live_before (Spill.live_files ())

let test_spartan_streaming_domains () =
  (* the full pipeline across domain counts: streaming bytes must match the
     single-domain in-memory reference at every pool size *)
  let inst, asn = chain_circuit 8 60 in
  let reference, _ = Spartan.prove Spartan.test_params inst asn in
  let reference = Spartan.proof_to_bytes reference in
  let reference_fri, _ = Spartan_fri.prove Spartan_fri.test_params inst asn in
  let reference_fri = Spartan_fri.proof_to_bytes reference_fri in
  List.iter
    (fun d ->
      Pool.with_domains d (fun () ->
          let streamed, _ =
            Spartan.prove ~engine:(budget_engine 8192) Spartan.test_params inst asn
          in
          Alcotest.(check bool)
            (Printf.sprintf "orion domains=%d" d)
            true
            (Bytes.equal reference (Spartan.proof_to_bytes streamed));
          let streamed, _ =
            Spartan_fri.prove ~engine:(budget_engine 8192) Spartan_fri.test_params inst
              asn
          in
          Alcotest.(check bool)
            (Printf.sprintf "fri domains=%d" d)
            true
            (Bytes.equal reference_fri (Spartan_fri.proof_to_bytes streamed))))
    [ 1; 2; 3 ]

let test_spartan_streaming_verifies () =
  let inst, asn = chain_circuit 4 80 in
  let io = R1cs.public_io inst asn in
  let proof, _ = Spartan.prove ~engine:(budget_engine 4096) Spartan.test_params inst asn in
  (match Spartan.verify Spartan.test_params inst ~io proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "orion streamed proof rejected: %s" (Zk_pcs.Verify_error.to_string e));
  let proof, _ =
    Spartan_fri.prove ~engine:(budget_engine 4096) Spartan_fri.test_params inst asn
  in
  match Spartan_fri.verify Spartan_fri.test_params inst ~io proof with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fri streamed proof rejected: %s" (Zk_pcs.Verify_error.to_string e)

(* --- configuration knob ------------------------------------------------- *)

let test_budget_knob () =
  (try
     ignore (Engine.create ~stream_budget_bytes:0 ());
     Alcotest.fail "zero budget should raise"
   with Invalid_argument _ -> ());
  (try
     ignore (Engine.create ~stream_budget_bytes:(-5) ());
     Alcotest.fail "negative budget should raise"
   with Invalid_argument _ -> ());
  let lookup kvs k = List.assoc_opt k kvs in
  (match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_STREAM_BUDGET_MB", "64") ]) with
  | Ok c -> Alcotest.(check (option int)) "parsed MB" (Some 64) c.Engine.Config.stream_budget_mb
  | Error e -> Alcotest.failf "well-formed budget rejected: %s" e);
  List.iter
    (fun bad ->
      match Engine.Config.parse ~lookup:(lookup [ ("NOCAP_STREAM_BUDGET_MB", bad) ]) with
      | Ok _ -> Alcotest.failf "malformed budget %S accepted" bad
      | Error _ -> ())
    [ "abc"; "-3"; "0"; "12.5"; "" ];
  (* byte-granular override wins over the MB knob *)
  let config =
    { Engine.Config.default with Engine.Config.stream_budget_mb = Some 512 }
  in
  let e = Engine.create ~config ~stream_budget_bytes:4096 () in
  Alcotest.(check (option int)) "bytes win" (Some 4096) (Engine.stream_budget_bytes e);
  let e = Engine.create ~config () in
  Alcotest.(check (option int))
    "MB scaled" (Some (512 * 1024 * 1024))
    (Engine.stream_budget_bytes e)

let suite =
  [
    Alcotest.test_case "spill roundtrip + cleanup" `Quick test_spill_roundtrip;
    Alcotest.test_case "spill RAM backing" `Quick test_spill_ram_backing;
    Alcotest.test_case "spill reader windows" `Quick test_spill_reader;
    Alcotest.test_case "spill bounds checks" `Quick test_spill_bounds;
    prop_eq_table_range;
    Alcotest.test_case "ranged spmv = full" `Quick test_spmv_ranges;
    Alcotest.test_case "z blocks = z" `Quick test_z_blocks;
    Alcotest.test_case "merkle builder = build" `Quick test_merkle_builder;
    Alcotest.test_case "sumcheck streaming = in-memory" `Quick test_sumcheck_streaming;
    Alcotest.test_case "sumcheck over spilled tables" `Quick test_sumcheck_spilled_tables;
    prop_comb_kernel;
    Alcotest.test_case "comb kernel across chunks" `Quick test_comb_multi_chunk;
    Alcotest.test_case "malformed combs rejected" `Quick test_comb_invalid;
    Alcotest.test_case "orion streamed = dense" `Quick test_orion_streamed_equal;
    Alcotest.test_case "fri streamed = dense" `Quick test_fri_streamed_equal;
    Alcotest.test_case "spartan streaming bytes = in-memory" `Quick
      test_spartan_streaming_equal;
    Alcotest.test_case "spartan streaming across domains" `Quick
      test_spartan_streaming_domains;
    Alcotest.test_case "spartan streamed proofs verify" `Quick
      test_spartan_streaming_verifies;
    Alcotest.test_case "budget knob parse + precedence" `Quick test_budget_knob;
  ]
