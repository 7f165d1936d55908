module Value = Ode_base.Value

type binding = (string * Value.t) list

type context = Unrestricted | Recent | Chronicle

let merge (outer : binding) (inner : binding) : binding =
  (* inner (later) bindings shadow outer ones *)
  inner @ List.filter (fun (n, _) -> not (List.mem_assoc n inner)) outer

let cap n xs = if List.length xs <= n then xs else List.filteri (fun i _ -> i < n) xs

(* A live evaluator for one subtree. [step] consumes the leaf-match
   results for the current occurrence (precomputed per distinct leaf) and
   returns the environments of the matches completing at this point. *)
type inst = {
  step : leaf_matches:binding option array -> mask:(Mask.t -> bool) -> binding list;
  count : unit -> int;
}

type fa_inst = {
  fi_env : binding;  (* environment of the opening E-match *)
  fi_b : inst;
  fi_g : inst option;
  mutable fi_alive : bool;
}

(* Expressions are first translated to an indexed form where each leaf
   knows its slot in the per-occurrence match table. *)
type indexed =
  | I_leaf of int
  | I_or of indexed * indexed
  | I_and of indexed * indexed
  | I_not of indexed
  | I_relative of indexed * indexed
  | I_relative_plus of indexed
  | I_relative_n of int * indexed
  | I_prior of indexed * indexed
  | I_prior_n of int * indexed
  | I_sequence of indexed * indexed
  | I_sequence_n of int * indexed
  | I_choose of int * indexed
  | I_every of int * indexed
  | I_fa of indexed * indexed * indexed
  | I_fa_abs of indexed * indexed * indexed
  | I_masked of indexed * Mask.t

let rec index_expr (leaves : Expr.leaf list ref) (e : Expr.t) : indexed =
  let slot_of (l : Expr.leaf) =
    let rec find i = function
      | [] ->
        leaves := !leaves @ [ l ];
        i
      | l' :: rest -> if l' = l then i else find (i + 1) rest
    in
    find 0 !leaves
  in
  let bin op a b = op (index_expr leaves a) (index_expr leaves b) in
  let fold_list op = function
    | [] -> invalid_arg "Provenance: empty curried operator"
    | e :: rest ->
      List.fold_left (fun acc e -> op acc (index_expr leaves e)) (index_expr leaves e) rest
  in
  match e with
  | Leaf l -> I_leaf (slot_of l)
  | Or (a, b) -> bin (fun a b -> I_or (a, b)) a b
  | And (a, b) -> bin (fun a b -> I_and (a, b)) a b
  | Not a -> I_not (index_expr leaves a)
  | Relative es -> fold_list (fun a b -> I_relative (a, b)) es
  | Relative_plus a -> I_relative_plus (index_expr leaves a)
  | Relative_n (n, a) -> I_relative_n (n, index_expr leaves a)
  | Prior es -> fold_list (fun a b -> I_prior (a, b)) es
  | Prior_n (n, a) -> I_prior_n (n, index_expr leaves a)
  | Sequence es -> fold_list (fun a b -> I_sequence (a, b)) es
  | Sequence_n (n, a) -> I_sequence_n (n, index_expr leaves a)
  | Choose (n, a) -> I_choose (n, index_expr leaves a)
  | Every (n, a) -> I_every (n, index_expr leaves a)
  | Fa (a, b, g) ->
    I_fa (index_expr leaves a, index_expr leaves b, index_expr leaves g)
  | Fa_abs (a, b, g) ->
    I_fa_abs (index_expr leaves a, index_expr leaves b, index_expr leaves g)
  | Masked (a, m) -> I_masked (index_expr leaves a, m)

let rec instantiate ~max_matches ~context (e : indexed) : inst =
  let mk = instantiate ~max_matches ~context in
  let capm = cap max_matches in
  (* window-pool policy: how new initiators and completions affect the
     pending windows of one operator *)
  let admit ~fresh ~existing =
    match context with
    | Unrestricted | Chronicle -> cap max_matches (fresh @ existing)
    | Recent -> if fresh <> [] then fresh else existing
  in
  match e with
  | I_leaf slot ->
    {
      step =
        (fun ~leaf_matches ~mask:_ ->
          match leaf_matches.(slot) with Some b -> [ b ] | None -> []);
      count = (fun () -> 1);
    }
  | I_or (a, b) ->
    let ia = mk a and ib = mk b in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let ra = ia.step ~leaf_matches ~mask in
          let rb = ib.step ~leaf_matches ~mask in
          capm (ra @ rb));
      count = (fun () -> ia.count () + ib.count ());
    }
  | I_and (a, b) ->
    let ia = mk a and ib = mk b in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let ra = ia.step ~leaf_matches ~mask in
          let rb = ib.step ~leaf_matches ~mask in
          capm (List.concat_map (fun ea -> List.map (fun eb -> merge ea eb) rb) ra));
      count = (fun () -> ia.count () + ib.count ());
    }
  | I_not a ->
    let ia = mk a in
    {
      step =
        (fun ~leaf_matches ~mask ->
          match ia.step ~leaf_matches ~mask with [] -> [ [] ] | _ -> []);
      count = ia.count;
    }
  | I_relative (a, b) ->
    let ia = mk a in
    (* pending windows, newest first; the oldest is the list's tail *)
    let rights : (binding * inst) list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          (* step every window; remember each window's completions *)
          let results =
            List.map
              (fun (env_a, ib) ->
                ((env_a, ib), ib.step ~leaf_matches ~mask))
              !rights
          in
          let out =
            match context with
            | Unrestricted | Recent ->
              List.concat_map
                (fun ((env_a, _), ebs) -> List.map (fun eb -> merge env_a eb) ebs)
                results
            | Chronicle -> (
              (* pair the terminator with the OLDEST completing window and
                 consume that window only *)
              match
                List.rev results |> List.find_opt (fun (_, ebs) -> ebs <> [])
              with
              | None -> []
              | Some (((env_a, ib) as oldest), ebs) ->
                ignore oldest;
                rights :=
                  List.filter (fun (e, i) -> not (e == env_a && i == ib)) !rights;
                List.map (fun eb -> merge env_a eb) ebs)
          in
          let ra = ia.step ~leaf_matches ~mask in
          rights := admit ~fresh:(List.map (fun env_a -> (env_a, mk b)) ra) ~existing:!rights;
          capm out);
      count =
        (fun () ->
          ia.count () + List.fold_left (fun acc (_, i) -> acc + i.count ()) 0 !rights);
    }
  | I_relative_plus a ->
    (* The base link starts every chain. It stays outside the capped
       list: evicting it would stop new chains while the detector still
       starts them. *)
    let base = ([], mk a) in
    let links : (binding * inst) list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let out =
            List.concat_map
              (fun (env0, i) ->
                List.map (fun e -> merge env0 e) (i.step ~leaf_matches ~mask))
              (!links @ [ base ])
          in
          let out = capm out in
          links := cap max_matches (List.map (fun env -> (env, mk a)) out @ !links);
          out);
      count =
        (fun () -> List.fold_left (fun acc (_, i) -> acc + i.count ()) 0 (base :: !links));
    }
  | I_relative_n (n, a) ->
    (* the level-1 base link is pinned as in [I_relative_plus] *)
    let base = (1, [], mk a) in
    let links : (int * binding * inst) list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let hits =
            List.concat_map
              (fun (level, env0, i) ->
                List.map (fun e -> (level, merge env0 e)) (i.step ~leaf_matches ~mask))
              (!links @ [ base ])
          in
          let out = capm (List.filter_map (fun (l, e) -> if l >= n then Some e else None) hits) in
          links :=
            cap max_matches
              (List.map (fun (l, e) -> (min (l + 1) n, e, mk a)) hits @ !links);
          out);
      count =
        (fun () ->
          List.fold_left (fun acc (_, _, i) -> acc + i.count ()) 0 (base :: !links));
    }
  | I_prior (a, b) ->
    let ia = mk a and ib = mk b in
    let seen_a : binding list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let rb = ib.step ~leaf_matches ~mask in
          let out =
            capm
              (List.concat_map
                 (fun ea -> List.map (fun eb -> merge ea eb) rb)
                 !seen_a)
          in
          let ra = ia.step ~leaf_matches ~mask in
          seen_a := cap max_matches (ra @ !seen_a);
          out);
      count = (fun () -> ia.count () + ib.count ());
    }
  | I_prior_n (n, a) ->
    let ia = mk a in
    let hits = ref 0 in
    {
      step =
        (fun ~leaf_matches ~mask ->
          match ia.step ~leaf_matches ~mask with
          | [] -> []
          | envs ->
            incr hits;
            if !hits >= n then capm envs else []);
      count = ia.count;
    }
  | I_sequence (a, b) ->
    let ia = mk a and ib = mk b in
    let prev_a : binding list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let rb = ib.step ~leaf_matches ~mask in
          let out =
            capm
              (List.concat_map
                 (fun ea -> List.map (fun eb -> merge ea eb) rb)
                 !prev_a)
          in
          prev_a := capm (ia.step ~leaf_matches ~mask);
          out);
      count = (fun () -> ia.count () + ib.count ());
    }
  | I_sequence_n (n, a) ->
    let ia = mk a in
    let window : binding list list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let ra = capm (ia.step ~leaf_matches ~mask) in
          let out =
            if ra = [] || List.length !window < n - 1
               || List.exists (fun w -> w = []) !window
            then []
            else
              capm
                (List.fold_left
                   (fun acc w ->
                     List.concat_map (fun e -> List.map (fun ew -> merge ew e) w) acc)
                   ra !window)
          in
          window := (if n <= 1 then [] else ra :: cap (n - 2) !window);
          out);
      count = ia.count;
    }
  | I_choose (n, a) ->
    let ia = mk a in
    let hits = ref 0 in
    {
      step =
        (fun ~leaf_matches ~mask ->
          match ia.step ~leaf_matches ~mask with
          | [] -> []
          | envs ->
            incr hits;
            if !hits = n then capm envs else []);
      count = ia.count;
    }
  | I_every (n, a) ->
    let ia = mk a in
    let hits = ref 0 in
    {
      step =
        (fun ~leaf_matches ~mask ->
          match ia.step ~leaf_matches ~mask with
          | [] -> []
          | envs ->
            incr hits;
            if !hits mod n = 0 then capm envs else []);
      count = ia.count;
    }
  | I_fa (a, b, g) ->
    let ia = mk a in
    let live : fa_inst list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          (* [live] is newest-first; gather per-window completions, oldest
             last *)
          let outs = ref [] in
          List.iter
            (fun fi ->
              if fi.fi_alive then begin
                let rb = fi.fi_b.step ~leaf_matches ~mask in
                let rg =
                  match fi.fi_g with
                  | Some g -> g.step ~leaf_matches ~mask
                  | None -> []
                in
                if rb <> [] then begin
                  outs := List.map (fun eb -> merge fi.fi_env eb) rb :: !outs;
                  fi.fi_alive <- false
                end
                else if rg <> [] then fi.fi_alive <- false
              end)
            !live;
          live := List.filter (fun fi -> fi.fi_alive) !live;
          let out =
            match context, !outs with
            | Chronicle, oldest :: _ -> oldest (* outs is oldest-first here *)
            | Chronicle, [] -> []
            | (Unrestricted | Recent), outs -> List.concat outs
          in
          let ra = ia.step ~leaf_matches ~mask in
          live :=
            admit
              ~fresh:
                (List.map
                   (fun env ->
                     { fi_env = env; fi_b = mk b; fi_g = Some (mk g); fi_alive = true })
                   ra)
              ~existing:!live;
          capm out);
      count =
        (fun () ->
          ia.count ()
          + List.fold_left
              (fun acc fi ->
                acc + fi.fi_b.count ()
                + match fi.fi_g with Some g -> g.count () | None -> 0)
              0 !live);
    }
  | I_fa_abs (a, b, g) ->
    let ia = mk a in
    let ig = mk g in
    let live : fa_inst list ref = ref [] in
    {
      step =
        (fun ~leaf_matches ~mask ->
          let rg = ig.step ~leaf_matches ~mask in
          let outs = ref [] in
          List.iter
            (fun fi ->
              if fi.fi_alive then begin
                let rb = fi.fi_b.step ~leaf_matches ~mask in
                if rb <> [] then begin
                  outs := List.map (fun eb -> merge fi.fi_env eb) rb :: !outs;
                  fi.fi_alive <- false
                end
                else if rg <> [] then fi.fi_alive <- false
              end)
            !live;
          live := List.filter (fun fi -> fi.fi_alive) !live;
          let out =
            match context, !outs with
            | Chronicle, oldest :: _ -> oldest
            | Chronicle, [] -> []
            | (Unrestricted | Recent), outs -> List.concat outs
          in
          let ra = ia.step ~leaf_matches ~mask in
          live :=
            admit
              ~fresh:
                (List.map
                   (fun env -> { fi_env = env; fi_b = mk b; fi_g = None; fi_alive = true })
                   ra)
              ~existing:!live;
          capm out);
      count =
        (fun () ->
          ia.count () + ig.count ()
          + List.fold_left (fun acc fi -> acc + fi.fi_b.count ()) 0 !live);
    }
  | I_masked (a, m) ->
    let ia = mk a in
    {
      step =
        (fun ~leaf_matches ~mask ->
          match ia.step ~leaf_matches ~mask with
          | [] -> []
          | envs -> if mask m then envs else []);
      count = ia.count;
    }

type t = {
  leaves : Expr.leaf array;
  guards : Rewrite.guard array;
  root : inst;
}

let make ?(max_matches = 64) ?(context = Unrestricted) expr =
  (match Expr.validate expr with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Provenance.make: " ^ msg));
  let leaves = ref [] in
  let indexed = index_expr leaves expr in
  let leaves = Array.of_list !leaves in
  let guards =
    Array.map
      (fun (l : Expr.leaf) ->
        { Rewrite.g_formals = l.formals; g_mask = l.mask })
      leaves
  in
  { leaves; guards; root = instantiate ~max_matches ~context indexed }

let leaf_bindings (l : Expr.leaf) (o : Symbol.occurrence) : binding =
  List.filteri (fun i _ -> i < List.length o.args) l.formals
  |> List.mapi (fun i (f : Expr.formal) -> (f.f_name, List.nth o.args i))

let post t ~env (occurrence : Symbol.occurrence) =
  let leaf_matches =
    Array.mapi
      (fun i (l : Expr.leaf) ->
        if
          Symbol.equal_basic l.basic occurrence.basic
          && Rewrite.guard_matches ~env occurrence t.guards.(i)
        then Some (leaf_bindings l occurrence)
        else None)
      t.leaves
  in
  (* per-trigger history: skip occurrences matching none of our events *)
  if Array.for_all (fun m -> m = None) leaf_matches then []
  else
    let mask m = Mask.eval_bool env m in
    t.root.step ~leaf_matches ~mask

let instance_count t = t.root.count ()
