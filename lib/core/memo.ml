(* An LRU slot: [tick] is the memo's logical clock at last use; eviction
   removes the minimum. The min-scan is O(capacity) but runs only on
   insertion into a full table, where it is dwarfed by the computation
   that produced the entry. *)
type 'v slot = { v : 'v; mutable tick : int }

type ('k, 'v) t = {
  tbl : ('k, 'v slot) Hashtbl.t;
  inflight : ('k, Domain.id) Hashtbl.t;  (** key -> domain computing it *)
  waiting : (Domain.id, 'k) Hashtbl.t;  (** domain -> key it waits for *)
  capacity : int option;
  lock : Mutex.t;
  settled : Condition.t;  (** broadcast whenever an in-flight key settles *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Memo.create: capacity < 1"
  | _ -> ());
  {
    tbl = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    waiting = Hashtbl.create 8;
    capacity;
    lock = Mutex.create ();
    settled = Condition.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let stats m =
  Mutex.protect m.lock (fun () ->
      {
        hits = m.hits;
        misses = m.misses;
        evictions = m.evictions;
        entries = Hashtbl.length m.tbl;
      })

(* Lock held. *)
let tick m =
  m.clock <- m.clock + 1;
  m.clock

(* The table never exceeds [capacity], so one eviction makes room. *)
let insert m key v =
  (match m.capacity with
  | Some cap when Hashtbl.length m.tbl >= cap ->
      Hashtbl.fold
        (fun k s lru ->
          match lru with
          | Some (_, t) when t <= s.tick -> lru
          | _ -> Some (k, s.tick))
        m.tbl None
      |> Option.iter (fun (k, _) ->
             Hashtbl.remove m.tbl k;
             m.evictions <- m.evictions + 1)
  | _ -> ());
  Hashtbl.replace m.tbl key { v; tick = tick m }

(* Would waiting for the domain [owner] wait, through the chain of
   waiters, on [self]? Each domain waits for at most one key and no wait
   that would close a cycle ever starts, so the chain ends. *)
let rec waits_on_self m self owner =
  owner = self
  ||
  match Hashtbl.find_opt m.waiting owner with
  | None -> false
  | Some k -> (
      match Hashtbl.find_opt m.inflight k with
      | Some next -> waits_on_self m self next
      | None -> false)

let find_or_add m key compute =
  Mutex.lock m.lock;
  let rec acquire () =
    match Hashtbl.find_opt m.tbl key with
    | Some s ->
        m.hits <- m.hits + 1;
        s.tick <- tick m;
        Mutex.unlock m.lock;
        Some s.v
    | None -> (
        let self = Domain.self () in
        match Hashtbl.find_opt m.inflight key with
        | Some owner when waits_on_self m self owner ->
            Mutex.unlock m.lock;
            Errors.invalidf "memo: waiting for this key would deadlock"
        | Some _ ->
            Hashtbl.replace m.waiting self key;
            Condition.wait m.settled m.lock;
            Hashtbl.remove m.waiting self;
            acquire ()
        | None ->
            m.misses <- m.misses + 1;
            Hashtbl.replace m.inflight key self;
            Mutex.unlock m.lock;
            None)
  in
  match acquire () with
  | Some v -> (v, true)
  | None -> (
      let settle store =
        Mutex.protect m.lock (fun () ->
            Hashtbl.remove m.inflight key;
            store ();
            Condition.broadcast m.settled)
      in
      match compute () with
      | v ->
          settle (fun () -> insert m key v);
          (v, false)
      | exception e ->
          settle ignore;
          raise e)
