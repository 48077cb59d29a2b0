//! The fourteen TPC-W web interactions.
//!
//! Each interaction is *planned* (random parameters drawn, client state
//! updated) and then *executed* as a statement closure against any
//! backend. Plans are deterministic once built, so a retried transaction
//! re-executes identically after its aborted attempt rolled back.

use crate::populate::{Population, TpcwScale, TITLE_WORDS};
use crate::schema::{
    self, author as au, cart_line as scl, customer as cu, item as it, order_line as ol,
    orders as ord, SUBJECTS,
};
use dmv_common::error::DmvResult;
use dmv_common::ids::TableId;
use dmv_sql::exec::StatementRunner;
use dmv_sql::query::{Access, AggFn, CmpOp, Expr, Join, Query, Select, SetExpr};
use dmv_sql::value::Value;
use rand::Rng;
use std::sync::atomic::{AtomicI64, Ordering};

/// The fourteen interactions of the TPC-W specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionKind {
    /// Home page: customer greeting + promotional items.
    Home,
    /// New products in a subject, newest first.
    NewProducts,
    /// Best sellers over the most recent orders (heaviest read).
    BestSellers,
    /// One item's detail page.
    ProductDetail,
    /// The search form.
    SearchRequest,
    /// Search results by subject, title or author.
    SearchResults,
    /// Add items to the shopping cart (update).
    ShoppingCart,
    /// Customer registration / login (update class).
    CustomerRegistration,
    /// Order preview (update class).
    BuyRequest,
    /// Order placement: the multi-table write transaction (update).
    BuyConfirm,
    /// Order status form.
    OrderInquiry,
    /// Most recent order display.
    OrderDisplay,
    /// Admin item lookup.
    AdminRequest,
    /// Admin item update (update).
    AdminConfirm,
}

impl InteractionKind {
    /// All fourteen interactions.
    pub const ALL: [InteractionKind; 14] = [
        InteractionKind::Home,
        InteractionKind::NewProducts,
        InteractionKind::BestSellers,
        InteractionKind::ProductDetail,
        InteractionKind::SearchRequest,
        InteractionKind::SearchResults,
        InteractionKind::ShoppingCart,
        InteractionKind::CustomerRegistration,
        InteractionKind::BuyRequest,
        InteractionKind::BuyConfirm,
        InteractionKind::OrderInquiry,
        InteractionKind::OrderDisplay,
        InteractionKind::AdminRequest,
        InteractionKind::AdminConfirm,
    ];

    /// Interaction name as in the TPC-W specification.
    pub fn name(&self) -> &'static str {
        match self {
            InteractionKind::Home => "Home",
            InteractionKind::NewProducts => "NewProducts",
            InteractionKind::BestSellers => "BestSellers",
            InteractionKind::ProductDetail => "ProductDetail",
            InteractionKind::SearchRequest => "SearchRequest",
            InteractionKind::SearchResults => "SearchResults",
            InteractionKind::ShoppingCart => "ShoppingCart",
            InteractionKind::CustomerRegistration => "CustomerRegistration",
            InteractionKind::BuyRequest => "BuyRequest",
            InteractionKind::BuyConfirm => "BuyConfirm",
            InteractionKind::OrderInquiry => "OrderInquiry",
            InteractionKind::OrderDisplay => "OrderDisplay",
            InteractionKind::AdminRequest => "AdminRequest",
            InteractionKind::AdminConfirm => "AdminConfirm",
        }
    }

    /// True for interactions the scheduler treats as update transactions
    /// (the ordering-class interactions that may write). Their mix
    /// fractions yield the paper's 5 % / 20 % / 50 % update shares.
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            InteractionKind::ShoppingCart
                | InteractionKind::CustomerRegistration
                | InteractionKind::BuyRequest
                | InteractionKind::BuyConfirm
                | InteractionKind::AdminConfirm
        )
    }

    /// The tables the interaction may access — the per-transaction-type
    /// table sets the scheduler is pre-configured with (conflict-class
    /// routing).
    pub fn tables(&self) -> Vec<TableId> {
        match self {
            InteractionKind::Home | InteractionKind::SearchRequest => {
                vec![schema::CUSTOMER, schema::ITEM]
            }
            InteractionKind::NewProducts
            | InteractionKind::ProductDetail
            | InteractionKind::AdminRequest => vec![schema::ITEM, schema::AUTHOR],
            InteractionKind::BestSellers => {
                vec![schema::ORDER_LINE, schema::ITEM, schema::AUTHOR]
            }
            InteractionKind::SearchResults => vec![schema::ITEM, schema::AUTHOR],
            InteractionKind::ShoppingCart => {
                vec![schema::SHOPPING_CART, schema::CART_LINE, schema::ITEM]
            }
            InteractionKind::CustomerRegistration => vec![schema::CUSTOMER, schema::ADDRESS],
            InteractionKind::BuyRequest => vec![
                schema::CUSTOMER,
                schema::ADDRESS,
                schema::COUNTRY,
                schema::SHOPPING_CART,
                schema::CART_LINE,
                schema::ITEM,
            ],
            InteractionKind::BuyConfirm => vec![
                schema::ORDERS,
                schema::ORDER_LINE,
                schema::ITEM,
                schema::CC_XACTS,
                schema::SHOPPING_CART,
                schema::CART_LINE,
            ],
            InteractionKind::OrderInquiry => vec![schema::CUSTOMER],
            InteractionKind::OrderDisplay => {
                vec![schema::ORDERS, schema::ORDER_LINE, schema::ITEM, schema::CC_XACTS]
            }
            InteractionKind::AdminConfirm => vec![schema::ITEM, schema::ORDER_LINE],
        }
    }
}

/// Cluster-wide id watermark allocator shared by all emulated clients.
#[derive(Debug)]
pub struct IdAllocator {
    next_customer: AtomicI64,
    next_address: AtomicI64,
    next_order: AtomicI64,
    next_order_line: AtomicI64,
    next_cart: AtomicI64,
}

impl IdAllocator {
    /// Continues id sequences from a generated population.
    pub fn from_population(scale: TpcwScale, pop: &Population) -> Self {
        IdAllocator {
            next_customer: AtomicI64::new(scale.customers as i64 + 1),
            next_address: AtomicI64::new(scale.addresses() as i64 + 1),
            next_order: AtomicI64::new(pop.max_order_id + 1),
            next_order_line: AtomicI64::new(pop.max_order_line_id + 1),
            next_cart: AtomicI64::new(1),
        }
    }

    fn alloc(counter: &AtomicI64) -> i64 {
        counter.fetch_add(1, Ordering::Relaxed) // relaxed-ok: ID allocator; uniqueness comes from the RMW
    }

    /// Allocates a new customer id.
    pub fn alloc_customer(&self) -> i64 {
        Self::alloc(&self.next_customer)
    }

    /// Allocates a new address id.
    pub fn alloc_address(&self) -> i64 {
        Self::alloc(&self.next_address)
    }

    /// Allocates a new order id.
    pub fn alloc_order(&self) -> i64 {
        Self::alloc(&self.next_order)
    }

    /// Allocates a new order-line id.
    pub fn alloc_order_line(&self) -> i64 {
        Self::alloc(&self.next_order_line)
    }

    /// Allocates a new shopping-cart id.
    pub fn alloc_cart(&self) -> i64 {
        Self::alloc(&self.next_cart)
    }

    /// Highest existing order id (BestSellers looks at the most recent
    /// 3333 orders).
    pub fn current_max_order(&self) -> i64 {
        self.next_order.load(Ordering::Relaxed) - 1 // relaxed-ok: ID allocator; uniqueness comes from the RMW
    }
}

/// Per-client session state (the web tier keeps this in the session).
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Logged-in customer.
    pub c_id: i64,
    /// Open shopping cart, if any: `(cart id, (item, qty) lines)`.
    pub cart: Option<(i64, Vec<(i64, i64)>)>,
}

impl ClientState {
    /// A fresh session for a random populated customer.
    pub fn new(c_id: i64) -> Self {
        ClientState { c_id, cart: None }
    }
}

/// The statement-driving closure of a planned interaction.
pub type ExecFn = Box<dyn FnMut(&mut dyn StatementRunner) -> DmvResult<()> + Send>;

/// A planned interaction, ready to execute (possibly repeatedly, on
/// retry) against any backend.
pub struct Interaction {
    /// Which interaction this is.
    pub kind: InteractionKind,
    /// The statement-driving closure.
    pub exec: ExecFn,
}

impl std::fmt::Debug for Interaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interaction").field("kind", &self.kind).finish()
    }
}

/// 80/20-skewed item id (the paper's workloads have strong locality:
/// the memory-resident working set is the hot fraction of the database).
fn skewed_item<R: Rng>(rng: &mut R, n_items: i64) -> i64 {
    if rng.gen_bool(0.8) {
        rng.gen_range(1..=(n_items / 5).max(1))
    } else {
        rng.gen_range(1..=n_items)
    }
}

fn batch(kind: InteractionKind, queries: Vec<Query>) -> Interaction {
    Interaction {
        kind,
        exec: Box::new(move |r| {
            for q in &queries {
                r.run(q)?;
            }
            Ok(())
        }),
    }
}

fn item_author_join() -> Join {
    Join { table: schema::AUTHOR, left_col: it::I_A_ID, right_col: au::A_ID, right_index: Some(0) }
}

/// Plans one interaction of the given kind.
#[allow(clippy::too_many_lines)]
pub fn plan<R: Rng>(
    kind: InteractionKind,
    rng: &mut R,
    state: &mut ClientState,
    ids: &IdAllocator,
    scale: TpcwScale,
    now: i64,
) -> Interaction {
    let n_items = scale.items as i64;
    match kind {
        InteractionKind::Home => {
            let mut queries = vec![Query::Select(
                Select::by_pk(schema::CUSTOMER, vec![state.c_id.into()])
                    .project(vec![cu::C_FNAME, cu::C_LNAME]),
            )];
            for _ in 0..5 {
                queries.push(Query::Select(
                    Select::by_pk(schema::ITEM, vec![skewed_item(rng, n_items).into()])
                        .project(vec![it::I_ID, it::I_THUMBNAIL]),
                ));
            }
            batch(kind, queries)
        }
        InteractionKind::NewProducts => {
            let subject = SUBJECTS[rng.gen_range(0..SUBJECTS.len())];
            let q = Query::Select(
                Select::scan(schema::ITEM)
                    .access(Access::IndexEq {
                        index_no: it::IDX_BY_SUBJECT,
                        key: vec![subject.into()],
                    })
                    .join(item_author_join())
                    .order_by(it::I_PUB_DATE, true)
                    .limit(50)
                    .project(vec![it::I_ID, it::I_TITLE, 9 + au::A_FNAME, 9 + au::A_LNAME]),
            );
            batch(kind, vec![q])
        }
        InteractionKind::BestSellers => {
            let lo = (ids.current_max_order() - 3333).max(1);
            let q = Query::Select(
                Select::scan(schema::ORDER_LINE)
                    .access(Access::IndexRange {
                        index_no: 1, // by_order
                        lo: Some((vec![lo.into()], true)),
                        hi: None,
                        rev: false,
                        scan_limit: None,
                    })
                    .join(Join {
                        table: schema::ITEM,
                        left_col: ol::OL_I_ID,
                        right_col: it::I_ID,
                        right_index: Some(0),
                    })
                    .join(Join {
                        table: schema::AUTHOR,
                        left_col: 5 + it::I_A_ID,
                        right_col: au::A_ID,
                        right_index: Some(0),
                    })
                    .group(vec![5 + it::I_ID, 5 + it::I_TITLE], vec![AggFn::Sum(ol::OL_QTY)])
                    .order_by(2, true)
                    .limit(50),
            );
            batch(kind, vec![q])
        }
        InteractionKind::ProductDetail | InteractionKind::AdminRequest => {
            let q = Query::Select(
                Select::by_pk(schema::ITEM, vec![skewed_item(rng, n_items).into()])
                    .join(item_author_join()),
            );
            batch(kind, vec![q])
        }
        InteractionKind::SearchRequest => {
            let q = Query::Select(
                Select::by_pk(schema::ITEM, vec![skewed_item(rng, n_items).into()])
                    .project(vec![it::I_ID]),
            );
            batch(kind, vec![q])
        }
        InteractionKind::SearchResults => {
            let word = TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())];
            let q = match rng.gen_range(0..3) {
                0 => Query::Select(
                    Select::scan(schema::ITEM)
                        .access(Access::IndexEq {
                            index_no: it::IDX_BY_SUBJECT,
                            key: vec![SUBJECTS[rng.gen_range(0..SUBJECTS.len())].into()],
                        })
                        .join(item_author_join())
                        .order_by(it::I_TITLE, false)
                        .limit(50),
                ),
                1 => Query::Select(
                    Select::scan(schema::ITEM)
                        .filter(Expr::like(it::I_TITLE, &format!("%{word}%")))
                        .join(item_author_join())
                        .limit(50),
                ),
                _ => Query::Select(
                    Select::scan(schema::AUTHOR)
                        .filter(Expr::like(au::A_LNAME, &format!("{word}%")))
                        .join(Join {
                            table: schema::ITEM,
                            left_col: au::A_ID,
                            right_col: it::I_A_ID,
                            right_index: Some(it::IDX_BY_AUTHOR),
                        })
                        .limit(50),
                ),
            };
            batch(kind, vec![q])
        }
        InteractionKind::ShoppingCart => {
            // Pick the items first, then read them (item pages in id
            // order, before any cart-table locks) and finally write the
            // cart — a canonical lock order shared with BuyConfirm.
            let mut added: Vec<i64> =
                (0..rng.gen_range(1..=3)).map(|_| skewed_item(rng, n_items)).collect();
            added.sort_unstable();
            added.dedup();
            let mut queries = Vec::new();
            for i_id in &added {
                queries.push(Query::Select(Select::by_pk(schema::ITEM, vec![(*i_id).into()])));
            }
            let (sc_id, mut lines) = ensure_cart(state, ids, now, &mut queries);
            for &i_id in &added {
                if let Some(line) = lines.iter_mut().find(|(id, _)| *id == i_id) {
                    line.1 += 1;
                    queries.push(Query::Update {
                        table: schema::CART_LINE,
                        access: Access::IndexEq {
                            index_no: 0,
                            key: vec![sc_id.into(), i_id.into()],
                        },
                        filter: None,
                        set: vec![(scl::SCL_QTY, SetExpr::AddInt(1))],
                    });
                } else {
                    lines.push((i_id, 1));
                    queries.push(Query::Insert {
                        table: schema::CART_LINE,
                        rows: vec![vec![sc_id.into(), i_id.into(), 1.into()]],
                    });
                }
            }
            queries.push(Query::Update {
                table: schema::SHOPPING_CART,
                access: Access::IndexEq { index_no: 0, key: vec![sc_id.into()] },
                filter: None,
                set: vec![(1, SetExpr::Value(now.into()))],
            });
            lines.sort_by_key(|(i, _)| *i);
            state.cart = Some((sc_id, lines));
            batch(kind, queries)
        }
        InteractionKind::CustomerRegistration => {
            if rng.gen_bool(0.2) {
                // New customer: insert address + customer.
                let addr_id = ids.alloc_address();
                let c_id = ids.alloc_customer();
                state.c_id = c_id;
                let queries = vec![
                    Query::Insert {
                        table: schema::CUSTOMER,
                        rows: vec![vec![
                            c_id.into(),
                            format!("user{c_id}").into(),
                            "New".into(),
                            "Customer".into(),
                            addr_id.into(),
                            "5550000000".into(),
                            format!("user{c_id}@example.com").into(),
                            Value::Float(0.0),
                        ]],
                    },
                    Query::Insert {
                        table: schema::ADDRESS,
                        rows: vec![vec![
                            addr_id.into(),
                            "street".into(),
                            "city".into(),
                            "00000".into(),
                            (rng.gen_range(1..=92i64)).into(),
                        ]],
                    },
                ];
                batch(kind, queries)
            } else {
                let c_id = rng.gen_range(1..=(scale.customers as i64));
                state.c_id = c_id;
                let q = Query::Select(Select::scan(schema::CUSTOMER).access(Access::IndexEq {
                    index_no: 1,
                    key: vec![format!("user{c_id}").into()],
                }));
                batch(kind, vec![q])
            }
        }
        InteractionKind::BuyRequest => {
            // Item reads come first (global table order); the cart-line
            // display is a plain select with the item rows read
            // separately, so no lock is taken out of order.
            let mut queries = Vec::new();
            let mut display: Vec<i64> = state
                .cart
                .as_ref()
                .map(|(_, lines)| lines.iter().map(|(i, _)| *i).collect())
                .unwrap_or_default();
            if display.is_empty() {
                display.push(skewed_item(rng, n_items));
            }
            display.sort_unstable();
            display.dedup();
            for i_id in &display {
                queries.push(Query::Select(Select::by_pk(schema::ITEM, vec![(*i_id).into()])));
            }
            queries.push(Query::Select(
                Select::by_pk(schema::CUSTOMER, vec![state.c_id.into()])
                    .join(Join {
                        table: schema::ADDRESS,
                        left_col: cu::C_ADDR_ID,
                        right_col: 0,
                        right_index: Some(0),
                    })
                    .join(Join {
                        table: schema::COUNTRY,
                        left_col: 8 + 4, // addr_co_id in the joined row
                        right_col: 0,
                        right_index: Some(0),
                    }),
            ));
            let (sc_id, mut lines) = ensure_cart(state, ids, now, &mut queries);
            if lines.is_empty() {
                lines.push((display[0], 1));
                queries.push(Query::Insert {
                    table: schema::CART_LINE,
                    rows: vec![vec![sc_id.into(), display[0].into(), 1.into()]],
                });
            }
            queries.push(Query::Update {
                table: schema::SHOPPING_CART,
                access: Access::IndexEq { index_no: 0, key: vec![sc_id.into()] },
                filter: None,
                set: vec![(1, SetExpr::Value(now.into()))],
            });
            queries.push(Query::Select(
                Select::scan(schema::CART_LINE).access(Access::IndexEq {
                    index_no: scl::IDX_BY_CART,
                    key: vec![sc_id.into()],
                }),
            ));
            state.cart = Some((sc_id, lines));
            batch(kind, queries)
        }
        InteractionKind::BuyConfirm => {
            let mut queries = Vec::new();
            let (sc_id, mut lines) = ensure_cart(state, ids, now, &mut queries);
            if lines.is_empty() {
                let i_id = skewed_item(rng, n_items);
                lines.push((i_id, 1));
                queries.push(Query::Insert {
                    table: schema::CART_LINE,
                    rows: vec![vec![sc_id.into(), i_id.into(), 1.into()]],
                });
            }
            // All transaction types acquire tables in one global order
            // (items first, in id order) so cross-table page-lock cycles
            // cannot form.
            lines.sort_by_key(|(i, _)| *i);
            for (i_id, qty) in &lines {
                // Decrement stock; restock when it falls below zero
                // (TPC-W's "add 21" rule).
                queries.push(Query::Update {
                    table: schema::ITEM,
                    access: Access::IndexEq { index_no: 0, key: vec![(*i_id).into()] },
                    filter: None,
                    set: vec![(it::I_STOCK, SetExpr::AddInt(-qty))],
                });
                queries.push(Query::Update {
                    table: schema::ITEM,
                    access: Access::IndexEq { index_no: 0, key: vec![(*i_id).into()] },
                    filter: Some(Expr::cmp(it::I_STOCK, CmpOp::Lt, 0)),
                    set: vec![(it::I_STOCK, SetExpr::AddInt(21))],
                });
            }
            let o_id = ids.alloc_order();
            let total: f64 = lines.iter().map(|(_, q)| *q as f64 * 19.99).sum();
            queries.push(Query::Insert {
                table: schema::ORDERS,
                rows: vec![vec![
                    o_id.into(),
                    state.c_id.into(),
                    now.into(),
                    Value::Float(total),
                    "PENDING".into(),
                    1.into(),
                ]],
            });
            for (i_id, qty) in &lines {
                let ol_id = ids.alloc_order_line();
                queries.push(Query::Insert {
                    table: schema::ORDER_LINE,
                    rows: vec![vec![
                        ol_id.into(),
                        o_id.into(),
                        (*i_id).into(),
                        (*qty).into(),
                        Value::Float(0.0),
                    ]],
                });
            }
            queries.push(Query::Insert {
                table: schema::CC_XACTS,
                rows: vec![vec![
                    o_id.into(),
                    "VISA".into(),
                    "4111111111111111".into(),
                    Value::Float(total),
                    now.into(),
                ]],
            });
            queries.push(Query::Delete {
                table: schema::SHOPPING_CART,
                access: Access::IndexEq { index_no: 0, key: vec![sc_id.into()] },
                filter: None,
            });
            queries.push(Query::Delete {
                table: schema::CART_LINE,
                access: Access::IndexEq { index_no: scl::IDX_BY_CART, key: vec![sc_id.into()] },
                filter: None,
            });
            state.cart = None;
            batch(kind, queries)
        }
        InteractionKind::OrderInquiry => {
            let c_id = state.c_id;
            let q =
                Query::Select(Select::scan(schema::CUSTOMER).access(Access::IndexEq {
                    index_no: 1,
                    key: vec![format!("user{c_id}").into()],
                }));
            batch(kind, vec![q])
        }
        InteractionKind::OrderDisplay => {
            // Data-flow interaction: the most recent order id feeds the
            // line and credit-card lookups.
            let c_id = state.c_id;
            Interaction {
                kind,
                exec: Box::new(move |r| {
                    let rs = r.run(&Query::Select(
                        Select::scan(schema::ORDERS)
                            .access(Access::IndexEq { index_no: 1, key: vec![c_id.into()] })
                            .order_by(ord::O_ID, true)
                            .limit(1),
                    ))?;
                    let Some(order) = rs.rows.first() else { return Ok(()) };
                    let o_id = order[ord::O_ID].clone();
                    r.run(&Query::Select(
                        Select::scan(schema::ORDER_LINE)
                            .access(Access::IndexEq { index_no: 1, key: vec![o_id.clone()] })
                            .join(Join {
                                table: schema::ITEM,
                                left_col: ol::OL_I_ID,
                                right_col: it::I_ID,
                                right_index: Some(0),
                            }),
                    ))?;
                    r.run(&Query::Select(Select::by_pk(schema::CC_XACTS, vec![o_id])))?;
                    Ok(())
                }),
            }
        }
        InteractionKind::AdminConfirm => {
            let i_id = skewed_item(rng, n_items);
            let lo = (ids.current_max_order() - 100).max(1);
            let queries = vec![
                // Item lock first (global table order), then the
                // related-items computation over recent orders.
                Query::Update {
                    table: schema::ITEM,
                    access: Access::IndexEq { index_no: 0, key: vec![i_id.into()] },
                    filter: None,
                    set: vec![
                        (it::I_RELATED, SetExpr::Value(skewed_item(rng, n_items).into())),
                        (it::I_PUB_DATE, SetExpr::Value(now.into())),
                        (it::I_THUMBNAIL, SetExpr::Value("updated-thumb".into())),
                    ],
                },
                Query::Select(
                    Select::scan(schema::ORDER_LINE)
                        .access(Access::IndexRange {
                            index_no: 1,
                            lo: Some((vec![lo.into()], true)),
                            hi: None,
                            rev: false,
                            scan_limit: None,
                        })
                        .group(vec![ol::OL_I_ID], vec![AggFn::Sum(ol::OL_QTY)])
                        .order_by(1, true)
                        .limit(5),
                ),
            ];
            batch(kind, queries)
        }
    }
}

/// Ensures the client has a cart, emitting its creation insert if new.
/// Returns the cart id and current lines.
fn ensure_cart(
    state: &mut ClientState,
    ids: &IdAllocator,
    now: i64,
    queries: &mut Vec<Query>,
) -> (i64, Vec<(i64, i64)>) {
    match state.cart.take() {
        Some((id, lines)) => (id, lines),
        None => {
            let id = ids.alloc_cart();
            queries.push(Query::Insert {
                table: schema::SHOPPING_CART,
                rows: vec![vec![id.into(), now.into()]],
            });
            (id, Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::populate::generate;
    use dmv_common::rng::seeded;

    fn setup() -> (IdAllocator, ClientState, TpcwScale) {
        let scale = TpcwScale::tiny();
        let pop = generate(scale, 1);
        let ids = IdAllocator::from_population(scale, &pop);
        let state = ClientState::new(3);
        (ids, state, scale)
    }

    #[test]
    fn update_classification_matches_paper_classes() {
        use InteractionKind::*;
        let updates: Vec<_> = InteractionKind::ALL.iter().filter(|k| k.is_update()).collect();
        assert_eq!(
            updates,
            vec![&ShoppingCart, &CustomerRegistration, &BuyRequest, &BuyConfirm, &AdminConfirm]
        );
        assert!(!Home.is_update());
        assert!(!BestSellers.is_update());
        assert!(!OrderDisplay.is_update());
    }

    #[test]
    fn every_interaction_declares_tables() {
        for k in InteractionKind::ALL {
            assert!(!k.tables().is_empty(), "{} has no tables", k.name());
        }
    }

    #[test]
    fn id_allocator_continues_from_population() {
        let (ids, _, scale) = setup();
        assert_eq!(ids.alloc_customer(), scale.customers as i64 + 1);
        assert_eq!(ids.alloc_cart(), 1);
        let o1 = ids.alloc_order();
        let o2 = ids.alloc_order();
        assert_eq!(o2, o1 + 1);
        assert_eq!(ids.current_max_order(), o2);
    }

    #[test]
    fn shopping_cart_plan_updates_state() {
        let (ids, mut state, scale) = setup();
        let mut rng = seeded(5);
        assert!(state.cart.is_none());
        let i = plan(InteractionKind::ShoppingCart, &mut rng, &mut state, &ids, scale, 100);
        assert_eq!(i.kind, InteractionKind::ShoppingCart);
        let (sc_id, lines) = state.cart.as_ref().expect("cart created");
        assert_eq!(*sc_id, 1);
        assert!(!lines.is_empty());
    }

    #[test]
    fn buy_confirm_clears_cart() {
        let (ids, mut state, scale) = setup();
        let mut rng = seeded(6);
        let _ = plan(InteractionKind::ShoppingCart, &mut rng, &mut state, &ids, scale, 100);
        assert!(state.cart.is_some());
        let _ = plan(InteractionKind::BuyConfirm, &mut rng, &mut state, &ids, scale, 101);
        assert!(state.cart.is_none());
    }

    #[test]
    fn skew_hits_hot_range() {
        let mut rng = seeded(7);
        let n = 1000i64;
        let hot = (0..10_000).filter(|_| skewed_item(&mut rng, n) <= n / 5).count();
        assert!(hot > 7000, "hot fraction {hot}/10000");
    }

    #[test]
    fn registration_sometimes_inserts() {
        let (ids, mut state, scale) = setup();
        let mut rng = seeded(8);
        let mut inserted = false;
        for _ in 0..50 {
            let before = state.c_id;
            let _ =
                plan(InteractionKind::CustomerRegistration, &mut rng, &mut state, &ids, scale, 1);
            if state.c_id > scale.customers as i64 {
                inserted = true;
            }
            let _ = before;
        }
        assert!(inserted, "20% of registrations create a customer");
    }
}
