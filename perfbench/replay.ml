(* Traced replay of the Spartan prover, driven from outside the library.

   [Make (S)] re-runs the exact call sequence of [S.prove] — the in-memory
   path and the bounded-memory streaming path — through the public entry
   points of lib/r1cs, lib/poly, lib/sumcheck, lib/pcs (via [S.P]),
   lib/hash and lib/vec, wrapping every call in a named span. It uses the
   same transcript label, RNG seed and parameters, so the proof it
   assembles must serialize to the same bytes as [S.prove]'s; the caller
   checks that, which is what shows the spans timed the real prover. *)

open Nocap_repro

(* Accumulated span durations by name, plus the largest number of live
   spill files seen at any span boundary. *)
type spans = {
  totals : (string, float) Hashtbl.t;
  mutable live_files_max : int;
}

let create_spans () = { totals = Hashtbl.create 32; live_files_max = 0 }

let span sp name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Hashtbl.replace sp.totals name
    (dt +. Option.value (Hashtbl.find_opt sp.totals name) ~default:0.0);
  sp.live_files_max <- max sp.live_files_max (Spill.live_files ());
  r

let total sp name = Option.value (Hashtbl.find_opt sp.totals name) ~default:0.0
let sum_spans sp = Hashtbl.fold (fun _ v acc -> acc +. v) sp.totals 0.0

(* The combine polynomials Spartan feeds its two sumchecks. *)
let comb1 v = Gf.mul v.(0) (Gf.sub (Gf.mul v.(1) v.(2)) v.(3))
let comb2 v = Gf.mul v.(0) v.(1)

let combine_abc r_abc a b c =
  Gf.add (Gf.mul r_abc.(0) a) (Gf.add (Gf.mul r_abc.(1) b) (Gf.mul r_abc.(2) c))

module Make (S : Spartan.S) = struct
  module P = S.P

  type result = {
    proof : S.proof;
    sumcheck_mults : int;
    spmv_mults : int;
    transcript_hashes : int;
    opening_bytes : int;
  }

  let start_transcript sp (params : S.params) inst io =
    let digest = span sp "transcript.instance_digest" (fun () -> S.instance_digest inst) in
    span sp "transcript.absorb" (fun () ->
        let t = Transcript.create ("spartan-" ^ P.name) in
        Transcript.absorb_digest t "instance" digest;
        Transcript.absorb_int t "repetitions" params.S.repetitions;
        Transcript.absorb_gf t "io" io;
        t)

  let finish ~engine (params : S.params) transcript w_commitment reps ~sc_mults ~spmv_mults =
    Engine.finish_entry engine;
    let opening_bytes =
      Array.fold_left
        (fun acc r -> acc + P.proof_size_bytes params.S.pcs w_commitment r.S.w_open)
        0 reps
    in
    {
      proof = { S.w_commitment; reps };
      sumcheck_mults = sc_mults;
      spmv_mults;
      transcript_hashes = Transcript.hash_count transcript;
      opening_bytes;
    }

  (* The end of every repetition on both paths: open w~ at ry minus its
     top variable and absorb the value. *)
  let open_w sp ~engine (params : S.params) committed transcript l ry =
    let ry_rest = Array.sub ry 1 (l - 1) in
    let vw, w_open =
      span sp "pcs.open" (fun () -> P.open_at ~engine params.S.pcs committed transcript ry_rest)
    in
    span sp "transcript.absorb" (fun () -> Transcript.absorb_gf transcript "vw" [| vw |]);
    (vw, w_open)

  let prove_in_memory sp ~engine ~rng (params : S.params) inst asn =
    let ok = span sp "r1cs.satisfied" (fun () -> R1cs.satisfied inst asn) in
    if not ok then invalid_arg "replay: assignment does not satisfy the instance";
    let io = span sp "r1cs.z" (fun () -> R1cs.public_io inst asn) in
    let transcript = start_transcript sp params inst io in
    let l = inst.R1cs.log_size in
    let committed, w_commitment =
      span sp "pcs.commit" (fun () -> P.commit ~engine params.S.pcs rng asn.R1cs.w)
    in
    Fun.protect ~finally:(fun () -> P.free_committed committed) @@ fun () ->
    span sp "transcript.absorb" (fun () -> P.absorb_commitment transcript w_commitment);
    let zv = span sp "r1cs.z" (fun () -> R1cs.z inst asn) in
    let spmv m = span sp "sparse.spmv" (fun () -> Sparse.spmv m zv) in
    let az = spmv inst.R1cs.a in
    let bz = spmv inst.R1cs.b in
    let cz = spmv inst.R1cs.c in
    let spmv_mults = ref (R1cs.nnz inst) and sc_mults = ref 0 in
    let reps =
      Array.init params.S.repetitions (fun _ ->
          let tau =
            span sp "transcript.absorb" (fun () -> Transcript.challenge_gf_vec transcript "tau" l)
          in
          let eq_tau = span sp "mle.eq_table" (fun () -> Mle.eq_table tau) in
          let r1 =
            span sp "sumcheck.sc1" (fun () ->
                Sumcheck.prove ~engine ~comb_mults:2 transcript ~degree:3
                  ~tables:[| eq_tau; az; bz; cz |] ~comb:comb1 ~claim:Gf.zero)
          in
          sc_mults := !sc_mults + r1.Sumcheck.stats.Sumcheck.mults;
          let rx = r1.Sumcheck.challenges in
          let va = r1.Sumcheck.final_values.(1)
          and vb = r1.Sumcheck.final_values.(2)
          and vc = r1.Sumcheck.final_values.(3) in
          let r_abc =
            span sp "transcript.absorb" (fun () ->
                Transcript.absorb_gf transcript "claims-abc" [| va; vb; vc |];
                Transcript.challenge_gf_vec transcript "r-abc" 3)
          in
          let claim2 = combine_abc r_abc va vb vc in
          let eq_rx = span sp "mle.eq_table" (fun () -> Mle.eq_table rx) in
          let tr m = span sp "sparse.spmv_transpose" (fun () -> Sparse.spmv_transpose m eq_rx) in
          let ta = tr inst.R1cs.a in
          let tb = tr inst.R1cs.b in
          let tc = tr inst.R1cs.c in
          spmv_mults := !spmv_mults + R1cs.nnz inst;
          let m_table =
            span sp "spartan.mtable_combine" (fun () ->
                Array.init (R1cs.size inst) (fun y -> combine_abc r_abc ta.(y) tb.(y) tc.(y)))
          in
          let r2 =
            span sp "sumcheck.sc2" (fun () ->
                Sumcheck.prove ~engine ~comb_mults:1 transcript ~degree:2
                  ~tables:[| m_table; zv |] ~comb:comb2 ~claim:claim2)
          in
          sc_mults := !sc_mults + r2.Sumcheck.stats.Sumcheck.mults;
          let vw, w_open =
            open_w sp ~engine params committed transcript l r2.Sumcheck.challenges
          in
          {
            S.sc1 = r1.Sumcheck.proof;
            va;
            vb;
            vc;
            sc2 = r2.Sumcheck.proof;
            vw;
            w_open;
          })
    in
    span sp "pcs.commit" (fun () -> P.free_committed committed);
    finish ~engine params transcript w_commitment reps ~sc_mults:!sc_mults
      ~spmv_mults:!spmv_mults

  (* The bounded-memory path: row-blocked Az/Bz/Cz with the
     satisfiability check fused in, spilled eq tables and M~ table, and
     the streaming sumcheck over spill files. *)
  let prove_streaming sp ~engine ~rng ~budget (params : S.params) inst asn =
    let io = span sp "r1cs.z" (fun () -> R1cs.public_io inst asn) in
    let l = inst.R1cs.log_size in
    let n = R1cs.size inst in
    let block = max 1024 (budget / (8 * 8)) in
    let zfv =
      span sp "r1cs.z" (fun () ->
          let zfv = Fv.create n in
          R1cs.iter_z_blocks inst asn ~block (fun ~pos slice ->
              Fv.write_array slice ~src_pos:0 zfv ~dst_pos:pos ~len:(Array.length slice));
          zfv)
    in
    let zf j = Fv.get zfv j in
    let create tag len = span sp "spill.io" (fun () -> Spill.create ~tag ~spill:true len) in
    let free s = span sp "spill.io" (fun () -> Spill.free s) in
    let az = create "spartan-az" n in
    let bz = create "spartan-bz" n in
    let cz = create "spartan-cz" n in
    Fun.protect
      ~finally:(fun () ->
        Spill.free az;
        Spill.free bz;
        Spill.free cz)
    @@ fun () ->
    let r = ref 0 in
    while !r < n do
      let hi = min n (!r + block) in
      let rows m = span sp "sparse.spmv" (fun () -> Sparse.spmv_range m ~x:zf ~r_lo:!r ~r_hi:hi) in
      let ab = rows inst.R1cs.a in
      let bb = rows inst.R1cs.b in
      let cb = rows inst.R1cs.c in
      let ok =
        span sp "r1cs.satisfied" (fun () ->
            let ok = ref true in
            for i = 0 to hi - !r - 1 do
              if not (Gf.equal (Gf.mul ab.(i) bb.(i)) cb.(i)) then ok := false
            done;
            !ok)
      in
      if not ok then invalid_arg "replay: assignment does not satisfy the instance";
      span sp "spill.io" (fun () ->
          Spill.write az ~pos:!r (Fv.of_array ab);
          Spill.write bz ~pos:!r (Fv.of_array bb);
          Spill.write cz ~pos:!r (Fv.of_array cb));
      r := hi
    done;
    let transcript = start_transcript sp params inst io in
    let committed, w_commitment =
      span sp "pcs.commit" (fun () -> P.commit ~engine params.S.pcs rng asn.R1cs.w)
    in
    Fun.protect ~finally:(fun () -> P.free_committed committed) @@ fun () ->
    span sp "transcript.absorb" (fun () -> P.absorb_commitment transcript w_commitment);
    let spmv_mults = ref (R1cs.nnz inst) and sc_mults = ref 0 in
    let z_spill = Spill.of_fv zfv in
    let spill_eq tag point =
      let len = 1 lsl Array.length point in
      let s = create tag len in
      let eb =
        let b = min block len in
        let p = ref 1 in
        while !p * 2 <= b do
          p := !p * 2
        done;
        !p
      in
      let pos = ref 0 in
      while !pos < len do
        let blk = span sp "mle.eq_table" (fun () -> Mle.eq_table_range point ~lo:!pos ~len:eb) in
        span sp "spill.io" (fun () -> Spill.write s ~pos:!pos (Fv.of_array blk));
        pos := !pos + eb
      done;
      s
    in
    let reps =
      Array.init params.S.repetitions (fun _ ->
          let tau =
            span sp "transcript.absorb" (fun () -> Transcript.challenge_gf_vec transcript "tau" l)
          in
          let eq_tau = spill_eq "spartan-eqtau" tau in
          let r1 =
            Fun.protect ~finally:(fun () -> free eq_tau) @@ fun () ->
            span sp "sumcheck.sc1" (fun () ->
                Sumcheck.prove_streaming ~engine ~comb_mults:2 ~budget_bytes:budget transcript
                  ~degree:3 ~tables:[| eq_tau; az; bz; cz |] ~comb:comb1 ~claim:Gf.zero)
          in
          sc_mults := !sc_mults + r1.Sumcheck.stats.Sumcheck.mults;
          let rx = r1.Sumcheck.challenges in
          let va = r1.Sumcheck.final_values.(1)
          and vb = r1.Sumcheck.final_values.(2)
          and vc = r1.Sumcheck.final_values.(3) in
          let r_abc =
            span sp "transcript.absorb" (fun () ->
                Transcript.absorb_gf transcript "claims-abc" [| va; vb; vc |];
                Transcript.challenge_gf_vec transcript "r-abc" 3)
          in
          let claim2 = combine_abc r_abc va vb vc in
          let eq_rx = spill_eq "spartan-eqrx" rx in
          let m_table = create "spartan-m" n in
          let r2 =
            Fun.protect
              ~finally:(fun () ->
                Spill.free eq_rx;
                Spill.free m_table)
            @@ fun () ->
            let reader = span sp "spill.io" (fun () -> Spill.Reader.create eq_rx) in
            let y r = Spill.Reader.get reader r in
            let c = ref 0 in
            while !c < n do
              let hi = min n (!c + block) in
              let cols m =
                span sp "sparse.spmv_transpose" (fun () ->
                    Sparse.spmv_transpose_range m ~y ~c_lo:!c ~c_hi:hi)
              in
              let ta = cols inst.R1cs.a in
              let tb = cols inst.R1cs.b in
              let tc = cols inst.R1cs.c in
              let blk =
                span sp "spartan.mtable_combine" (fun () ->
                    Array.init (hi - !c) (fun i -> combine_abc r_abc ta.(i) tb.(i) tc.(i)))
              in
              span sp "spill.io" (fun () -> Spill.write m_table ~pos:!c (Fv.of_array blk));
              c := hi
            done;
            spmv_mults := !spmv_mults + R1cs.nnz inst;
            free eq_rx;
            span sp "sumcheck.sc2" (fun () ->
                Sumcheck.prove_streaming ~engine ~comb_mults:1 ~budget_bytes:budget transcript
                  ~degree:2 ~tables:[| m_table; z_spill |] ~comb:comb2 ~claim:claim2)
          in
          sc_mults := !sc_mults + r2.Sumcheck.stats.Sumcheck.mults;
          let vw, w_open =
            open_w sp ~engine params committed transcript l r2.Sumcheck.challenges
          in
          {
            S.sc1 = r1.Sumcheck.proof;
            va;
            vb;
            vc;
            sc2 = r2.Sumcheck.proof;
            vw;
            w_open;
          })
    in
    span sp "pcs.commit" (fun () -> P.free_committed committed);
    free az;
    free bz;
    free cz;
    finish ~engine params transcript w_commitment reps ~sc_mults:!sc_mults
      ~spmv_mults:!spmv_mults

  (* Mirrors [S.prove]'s dispatch: the engine's stream budget picks the
     path, and the RNG is the one [S.prove] would draw. *)
  let prove sp ~engine params inst asn =
    let rng = Engine.rng ~seed:0x5EED_CAFEL engine in
    match Engine.stream_budget_bytes engine with
    | None -> prove_in_memory sp ~engine ~rng params inst asn
    | Some budget -> prove_streaming sp ~engine ~rng ~budget params inst asn
end
