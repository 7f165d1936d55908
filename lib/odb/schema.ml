module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector
module Registry = Ode_obs.Registry
open Types

type class_builder = {
  b_name : string;
  b_constructor : (db -> oid -> Value.t list -> unit) option;
  b_fields : (string * Value.t) list;  (* reversed *)
  b_methods : meth list;
  b_triggers : trigger_def list;
}

let define_class ?constructor name =
  {
    b_name = name;
    b_constructor = constructor;
    b_fields = [];
    b_methods = [];
    b_triggers = [];
  }

let field b name default =
  if List.mem_assoc name b.b_fields then
    ode_error "class %s: duplicate field %s" b.b_name name;
  { b with b_fields = (name, default) :: b.b_fields }

let method_ b ?arity ~kind name impl =
  { b with b_methods = { m_name = name; m_kind = kind; m_arity = arity; m_impl = impl } :: b.b_methods }

let trigger b ?(perpetual = false) ?(mode = Detector.Full_history)
    ?(witnesses = false) name ~event ~action =
  let detector =
    (* ~share: triggers declaring the same event reuse one compiled
       detector, so the per-occurrence classification cache in
       [Engine.post] classifies once for all of them *)
    try Detector.make ~mode ~share:true event
    with Invalid_argument msg -> ode_error "trigger %s.%s: %s" b.b_name name msg
  in
  let def =
    {
      t_name = name;
      t_class = b.b_name;
      t_event = event;
      t_detector = detector;
      t_perpetual = perpetual;
      t_witnesses = witnesses;
      t_action = action;
      t_index = -1;  (* assigned at register_class *)
    }
  in
  { b with b_triggers = def :: b.b_triggers }

let trigger_str b ?perpetual ?mode ?witnesses name ~event ~action =
  match Ode_lang.Parser.event_of_string event with
  | Error msg -> ode_error "trigger %s.%s: %s" b.b_name name msg
  | Ok expr -> trigger b ?perpetual ?mode ?witnesses name ~event:expr ~action

(* Append [d] to the dispatch bucket of every basic-event key its
   detector's alphabet guards on. Buckets keep declaration order. *)
let index_trigger_def dispatch (d : trigger_def) =
  List.iter
    (fun key ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt dispatch key) in
      Hashtbl.replace dispatch key (prev @ [ d ]))
    (Detector.relevant_basics d.t_detector)

(* Compile one dispatch bucket into the posting kernel's candidate row:
   defs stay in declaration order; the distinct detectors behind them
   (triggers declaring the same event share one) are factored out so the
   per-event path classifies each exactly once. *)
let make_krow (defs : trigger_def list) =
  let kr_defs = Array.of_list defs in
  let dets = ref [] in
  let n_dets = ref 0 in
  let kr_det_of =
    Array.map
      (fun (d : trigger_def) ->
        let det = d.t_detector in
        let rec find i = function
          | [] ->
            dets := !dets @ [ det ];
            incr n_dets;
            !n_dets - 1
          | det' :: rest -> if det' == det then i else find (i + 1) rest
        in
        find 0 !dets)
      kr_defs
  in
  { kr_defs; kr_dets = Array.of_list !dets; kr_det_of }

let register_class db b =
  if Hashtbl.mem db.schema.classes b.b_name then
    ode_error "class %s already defined" b.b_name;
  let k =
    {
      k_name = b.b_name;
      k_fields = List.rev b.b_fields;
      k_methods = Hashtbl.create 8;
      k_triggers = Hashtbl.create 8;
      k_n_triggers = List.length b.b_triggers;
      k_rows = Hashtbl.create 16;
      k_constructor = b.b_constructor;
    }
  in
  List.iter
    (fun m ->
      if Hashtbl.mem k.k_methods m.m_name then
        ode_error "class %s: duplicate method %s" b.b_name m.m_name;
      Hashtbl.add k.k_methods m.m_name m)
    b.b_methods;
  List.iter
    (fun (d : trigger_def) ->
      if Hashtbl.mem k.k_triggers d.t_name then
        ode_error "class %s: duplicate trigger %s" b.b_name d.t_name;
      Hashtbl.add k.k_triggers d.t_name d)
    b.b_triggers;
  (* b_triggers is accumulated in reverse; index in declaration order so
     dispatch (and therefore action execution on a shared occurrence) is
     deterministic *)
  let in_order = List.rev b.b_triggers in
  List.iteri (fun i (d : trigger_def) -> d.t_index <- i) in_order;
  let dispatch = Hashtbl.create 16 in
  List.iter (index_trigger_def dispatch) in_order;
  Hashtbl.iter
    (fun key defs -> Hashtbl.replace k.k_rows key (make_krow defs))
    dispatch;
  Hashtbl.add db.schema.classes b.b_name k;
  if Registry.enabled db.obs then begin
    Registry.incr db.obs Registry.Classes_registered;
    Registry.add db.obs Registry.Triggers_indexed (List.length b.b_triggers)
  end

let builder_name b = b.b_name

let register_fun db name f = Hashtbl.replace db.schema.functions name f

let find_class db name = Hashtbl.find_opt db.schema.classes name
let n_classes db = Hashtbl.length db.schema.classes

let find_fun db name = Hashtbl.find_opt db.schema.functions name

let db_trigger db ?(perpetual = false) ?(witnesses = false) name ~event ~action =
  if Hashtbl.mem db.schema.db_trigger_defs name then
    ode_error "database trigger %s already defined" name;
  let detector =
    try Detector.make ~mode:Detector.Full_history ~share:true event
    with Invalid_argument msg -> ode_error "database trigger %s: %s" name msg
  in
  let def =
    {
      t_name = name;
      t_class = "<database>";
      t_event = event;
      t_detector = detector;
      t_perpetual = perpetual;
      t_witnesses = witnesses;
      t_action = action;
      t_index = -1;  (* database scope: no per-object slot *)
    }
  in
  Hashtbl.add db.schema.db_trigger_defs name def;
  index_trigger_def db.schema.db_dispatch def;
  if Registry.enabled db.obs then
    Registry.incr db.obs Registry.Triggers_indexed

let db_trigger_str db ?perpetual ?witnesses name ~event ~action =
  match Ode_lang.Parser.event_of_string event with
  | Error msg -> ode_error "database trigger %s: %s" name msg
  | Ok expr -> db_trigger db ?perpetual ?witnesses name ~event:expr ~action

let find_db_trigger db name = Hashtbl.find_opt db.schema.db_trigger_defs name
