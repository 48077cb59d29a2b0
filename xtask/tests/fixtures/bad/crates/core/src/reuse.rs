// Synthetic violation fixture: an `[[alone]]` lock held together with a
// banned lock, and held across a banned call. Never compiled.

fn held_with_slots(store: &Store, applier: &Applier) {
    let results = store.results.lock();
    let shard = applier.slots.lock();
    drop(shard);
    drop(results);
}

fn held_across_execute(store: &Store, txn: &mut Txn, q: &Query) {
    let results = store.results.lock();
    let rs = execute(txn, q);
    drop(results);
}
