package traffic

// Get returns the task with the given ID.
func (s *Set) Get(id TaskID) (Task, bool) {
	t, ok := s.tasks[id]
	return t, ok
}
