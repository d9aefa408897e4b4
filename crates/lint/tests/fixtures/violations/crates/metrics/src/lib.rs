metrics! {
    Good => (Pager, "pager.good", "documented and pinned"),
    Bad => (Pager, "pager.bad", "neither documented nor pinned"),
}
