module Make (L : Platform.LOCK) = struct
  type 'a t = { lock : L.t; items : 'a Queue.t; mutable pushed : int }

  let create () = { lock = L.create (); items = Queue.create (); pushed = 0 }

  let push t x =
    L.lock t.lock;
    Queue.add x t.items;
    t.pushed <- t.pushed + 1;
    L.unlock t.lock

  (* The empty case is the hot one: a ZygOS core drains its remote queue
     first in each scheduler step it runs, and stolen batches are
     comparatively rare. (Idle cores with nothing to do skip the step on
     an [is_empty] check instead.) Probe without touching the lock —
     [Queue.is_empty] is one field read, and a racing push is caught by
     the caller's next probe. *)
  let drain t =
    if Queue.is_empty t.items then []
    else begin
      L.lock t.lock;
      let rec loop acc =
        match Queue.take_opt t.items with
        | Some x -> loop (x :: acc)
        | None -> List.rev acc
      in
      let out = loop [] in
      L.unlock t.lock;
      out
    end

  let length t =
    L.lock t.lock;
    let n = Queue.length t.items in
    L.unlock t.lock;
    n

  let[@zygos.hot] is_empty t = Queue.is_empty t.items

  let pushed_total t = t.pushed
end
