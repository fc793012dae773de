module Gf = Zk_field.Gf
module Ntt_fv = Zk_ntt.Ntt.Gf_fv
module Fv = Nocap_vec.Fv
module Merkle = Zk_merkle.Merkle
module Transcript = Zk_hash.Transcript

type params = { blowup_log2 : int; num_queries : int }

let default_params = { blowup_log2 = 2; num_queries = 30 }

type proof = {
  layer_roots : Merkle.digest array;
  final_constant : Gf.t;
  queries : query array;
}

and query = {
  position : int;
  layers : (Gf.t * Gf.t * Merkle.digest list * Merkle.digest list) array;
}

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Fri: size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Merkle tree over an evaluation layer, co-locating f(x) and f(-x): leaf j
   commits to (E[j], E[j + half]). *)
let commit_layer evals =
  let half = Array.length evals / 2 in
  let leaves =
    Array.init half (fun j -> Merkle.leaf_of_column [| evals.(j); evals.(j + half) |])
  in
  Merkle.build leaves

(* x_j = shift * w^j, so x_j^-1 = shift^-1 * (w^-1)^j runs as a product:
   one inversion per layer instead of one per element. The 1/2 and beta
   factors ride along in [t], and Goldilocks results are canonical, so the
   reassociated products are bit-identical to the textbook formula. *)
let fold ~shift evals beta =
  let n = Array.length evals in
  let half = n / 2 in
  let w_inv = Gf.inv (Gf.root_of_unity (log2_exact n)) in
  let inv2 = Gf.inv Gf.two in
  let t = ref (Gf.mul (Gf.mul beta inv2) (Gf.inv shift)) in
  Array.init half (fun j ->
      let a = evals.(j) and b = evals.(j + half) in
      let out = Gf.add (Gf.mul inv2 (Gf.add a b)) (Gf.mul !t (Gf.sub a b)) in
      t := Gf.mul !t w_inv;
      out)

let prove ?(shift = Gf.one) params transcript coeffs =
  let n = Array.length coeffs in
  let log_n = log2_exact n in
  let domain = n lsl params.blowup_log2 in
  Transcript.absorb_int transcript "fri/degree" n;
  Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
  (* Layer 0: evaluations over the (possibly coset-shifted) domain. *)
  let evals_fv = Fv.create domain in
  Fv.zero evals_fv;
  Fv.write_array coeffs ~src_pos:0 evals_fv ~dst_pos:0 ~len:n;
  (* Coset: scale coefficient i by shift^i before the NTT. *)
  if not (Gf.equal shift Gf.one) then begin
    let si = ref Gf.one in
    for i = 0 to n - 1 do
      Fv.set evals_fv i (Gf.mul (Fv.get evals_fv i) !si);
      si := Gf.mul !si shift
    done
  end;
  Ntt_fv.forward (Ntt_fv.plan domain) evals_fv;
  let evals = Fv.to_array evals_fv in
  (* Commit and fold log_n times. *)
  let layers = ref [ evals ] in
  let trees = ref [ commit_layer evals ] in
  Transcript.absorb_digest transcript "fri/root" (Merkle.root (List.hd !trees));
  let layer_shift = ref shift in
  for _ = 1 to log_n do
    let beta = Transcript.challenge_gf transcript "fri/beta" in
    let next = fold ~shift:!layer_shift (List.hd !layers) beta in
    layer_shift := Gf.square !layer_shift;
    layers := next :: !layers;
    let tree = commit_layer next in
    trees := tree :: !trees;
    Transcript.absorb_digest transcript "fri/root" (Merkle.root tree)
  done;
  let layers = Array.of_list (List.rev !layers) in
  let trees = Array.of_list (List.rev !trees) in
  (* The last layer must be constant (degree < 1 after log_n folds). *)
  let last = layers.(Array.length layers - 1) in
  let final_constant = last.(0) in
  Transcript.absorb_gf transcript "fri/final" [| final_constant |];
  (* Queries. *)
  let positions =
    Transcript.challenge_indices transcript "fri/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  let queries =
    Array.map
      (fun position ->
        let opened =
          Array.mapi
            (fun i layer ->
              let half = Array.length layer / 2 in
              let pos = position mod half in
              let path = Merkle.path trees.(i) pos in
              (layer.(pos), layer.(pos + half), path, path))
            layers
        in
        { position; layers = opened })
      positions
  in
  {
    layer_roots = Array.map Merkle.root trees;
    final_constant;
    queries;
  }

let verify ?(shift = Gf.one) params transcript ~degree_bound proof =
  let ( let* ) = Result.bind in
  let log_n = log2_exact degree_bound in
  let domain = degree_bound lsl params.blowup_log2 in
  let* () =
    if Array.length proof.layer_roots = log_n + 1 then Ok ()
    else Error "wrong number of layers"
  in
  Transcript.absorb_int transcript "fri/degree" degree_bound;
  Transcript.absorb_int transcript "fri/blowup" params.blowup_log2;
  Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(0);
  let betas = Array.make log_n Gf.zero in
  for i = 0 to log_n - 1 do
    betas.(i) <- Transcript.challenge_gf transcript "fri/beta";
    Transcript.absorb_digest transcript "fri/root" proof.layer_roots.(i + 1)
  done;
  Transcript.absorb_gf transcript "fri/final" [| proof.final_constant |];
  let positions =
    Transcript.challenge_indices transcript "fri/queries" ~bound:(domain / 2)
      ~count:params.num_queries
  in
  let* () =
    if Array.length proof.queries = params.num_queries then Ok ()
    else Error "wrong number of queries"
  in
  let inv2 = Gf.inv Gf.two in
  (* The layer-i domain is shift^(2^i) * <w_i>, so x^-1 at leaf j is
     shift_i^-1 * (w_i^-1)^j: both inverses are per layer, hoisted out of
     the query walk, which then costs one exponentiation per layer. *)
  let layer_inv =
    let s = ref shift in
    Array.init log_n (fun i ->
        let inverses =
          (Gf.inv !s, Gf.inv (Gf.root_of_unity (log_n + params.blowup_log2 - i)))
        in
        s := Gf.square !s;
        inverses)
  in
  let rec check_query q_idx =
    if q_idx >= Array.length proof.queries then Ok ()
    else begin
      let q = proof.queries.(q_idx) in
      if q.position <> positions.(q_idx) then Error "query position mismatch"
      else if Array.length q.layers <> log_n + 1 then Error "query layer count"
      else begin
        (* Walk the folding chain: at layer i the walked index j lives in
           [0, layer_size); the co-located leaf is j mod half, and j selects
           the low (a) or high (b) element of the opened pair. *)
        let rec walk i layer_size j expected =
          let half = layer_size / 2 in
          let leaf_pos = j mod half in
          let a, b, path, _ = q.layers.(i) in
          let leaf = Merkle.leaf_of_column [| a; b |] in
          if not (Merkle.verify ~root:proof.layer_roots.(i) ~index:leaf_pos ~leaf ~path)
          then Error (Printf.sprintf "query %d layer %d: bad path" q_idx i)
          else begin
            let value_at_j = if j >= half then b else a in
            let consistent =
              match expected with
              | None -> true
              | Some v -> Gf.equal v value_at_j
            in
            if not consistent then
              Error (Printf.sprintf "query %d layer %d: fold mismatch" q_idx i)
            else if i = log_n then
              if Gf.equal a proof.final_constant && Gf.equal b proof.final_constant
              then Ok ()
              else Error (Printf.sprintf "query %d: final layer not constant" q_idx)
            else begin
              let shift_inv, w_inv = layer_inv.(i) in
              let x_inv = Gf.mul shift_inv (Gf.pow w_inv (Int64.of_int leaf_pos)) in
              let even = Gf.mul inv2 (Gf.add a b) in
              let odd = Gf.mul inv2 (Gf.mul (Gf.sub a b) x_inv) in
              let next = Gf.add even (Gf.mul betas.(i) odd) in
              walk (i + 1) half leaf_pos (Some next)
            end
          end
        in
        match walk 0 domain q.position None with
        | Error e -> Error e
        | Ok () -> check_query (q_idx + 1)
      end
    end
  in
  check_query 0

let proof_size_bytes proof =
  let digest = 32 and field = 8 in
  (digest * Array.length proof.layer_roots)
  + field
  + Array.fold_left
      (fun acc q ->
        acc + 8
        + Array.fold_left
            (fun acc (_, _, path, _) -> acc + (2 * field) + (digest * List.length path))
            0 q.layers)
      0 proof.queries
